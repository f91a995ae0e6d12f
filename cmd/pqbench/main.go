// Command pqbench is the paper's benchmark tool. It measures the two things
// the paper's evaluation reports, throughput and rank error, and checks the
// queues' claimed relaxation bounds. The first argument selects the mode:
//
//	pqbench [cells] [flags]   throughput and rank-error cells (the default)
//	pqbench verify [flags]    each deletion's definite rank vs. its queue's bound
//	pqbench chaos [flags]     the fault-injection stress pass
//
// Cells mode runs one throughput cell (a -figure panel, or -workload and
// -keys), one rank-error cell (a -table panel), or the whole grid as one
// markdown report (-figure all -table all; either alone gives its half):
//
//	pqbench -figure 4e -duration 10s -reps 10  # Figure 2 / 4e at paper scale
//	pqbench -table 1                           # Table 1 / 2a: mean rank (stddev)
//	pqbench -figure all -table all -out report.md
//
// -queues takes registry identifiers and the aliases paper, engineered and
// klsm in every mode. With -batch N the workers move items through
// InsertN/DeleteMinN in groups of N, each counting as N operations.
//
// Exit status: 2 for a usage error, 1 for a failed verdict, a chaos
// violation or an I/O error, 0 otherwise.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"cpq"
	"cpq/internal/cli"
	"cpq/internal/pq"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// mode is one parsed invocation: check validates and resolves its flag
// values after parsing; exec runs it and reports whether a verdict failed.
type mode interface {
	check() error
	profiler() *cli.Profiler
	exec(w io.Writer) (failed bool, err error)
}

// errShown is a usage error the flag set has already printed.
var errShown = errors.New("usage error")

// run executes one command line and returns its exit status.
func run(args []string, stdout, stderr io.Writer) int {
	m, err := parse(args, stderr)
	switch {
	case errors.Is(err, flag.ErrHelp):
		return 0
	case err != nil:
		if err != errShown {
			fmt.Fprintln(stderr, "pqbench:", err)
		}
		return 2
	}
	stop, err := m.profiler().Start()
	if err != nil {
		fmt.Fprintln(stderr, "pqbench:", err)
		return 2
	}
	defer stop()
	failed, err := m.exec(stdout)
	if err != nil {
		fmt.Fprintln(stderr, "pqbench:", err)
		return 1
	}
	if failed {
		return 1
	}
	return 0
}

// parse reads a command line into its mode, checking every value before
// any benchmark time is spent.
func parse(args []string, stderr io.Writer) (mode, error) {
	name := "cells"
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		name, args = args[0], args[1:]
	}
	fs := flag.NewFlagSet("pqbench "+name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	var m mode
	switch name {
	case "cells":
		m = newCells(fs)
	case "verify", "chaos":
		m = newCheck(fs, name == "chaos")
	default:
		return nil, fmt.Errorf("unknown mode %q (want cells, verify or chaos)", name)
	}
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil, err
		}
		return nil, errShown
	}
	if fs.NArg() > 0 {
		return nil, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	return m, m.check()
}

// common holds the flags every mode has.
type common struct {
	queuesF string
	queues  []string
	seed    uint64
	batch   int
	prof    *cli.Profiler
}

func (c *common) register(fs *flag.FlagSet, queuesDefault string) {
	fs.StringVar(&c.queuesF, "queues", "", "comma-separated queue list; aliases: paper, engineered, klsm (default: "+queuesDefault+")")
	fs.Uint64Var(&c.seed, "seed", 0, "base RNG seed (0 = default; chaos: replays a failing run's injection)")
	fs.IntVar(&c.batch, "batch", 1, "operation batch width: route operations through InsertN/DeleteMinN in batches of this size (1 = scalar; see DESIGN.md §4c)")
	c.prof = cli.NewProfiler(fs)
}

// resolve reads -queues (empty selects def) and checks -batch.
func (c *common) resolve(def []string) (err error) {
	if c.queues, err = cli.ParseQueues(c.queuesF, def); err != nil {
		return err
	}
	return cli.CheckBatch("batch", c.batch)
}

func (c *common) profiler() *cli.Profiler { return c.prof }

// factory constructs the named queue; parse has already built it once, so
// an error here is a registry bug.
func factory(name string) func(threads int) pq.Queue {
	return func(threads int) pq.Queue {
		q, err := cpq.NewQueue(name, cpq.Options{Threads: threads})
		if err != nil {
			panic(err)
		}
		return q
	}
}
