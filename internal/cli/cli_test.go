package cli

import (
	"fmt"
	"strings"
	"testing"

	"cpq/internal/keys"
	"cpq/internal/workload"
)

func TestFiguresComplete(t *testing.T) {
	figs := Figures()
	if len(figs) != 11 {
		t.Fatalf("%d figure cells, want 11 (4a-4h + 8a-8c)", len(figs))
	}
	seen := map[string]bool{}
	for _, f := range figs {
		if seen[f.ID] {
			t.Fatalf("duplicate figure id %q", f.ID)
		}
		seen[f.ID] = true
	}
	// The brief announcement's three figures must be present via aliases.
	for _, id := range []string{"1", "2", "3"} {
		if _, err := FigureByID(id); err != nil {
			t.Fatalf("FigureByID(%q): %v", id, err)
		}
	}
}

func TestFigureAliases(t *testing.T) {
	f1, _ := FigureByID("1")
	f4a, _ := FigureByID("4a")
	if f1 != f4a {
		t.Fatal("figure 1 != 4a")
	}
	f2, _ := FigureByID("2")
	if f2.Workload != workload.Split || f2.KeyDist != keys.Ascending {
		t.Fatalf("figure 2 = %+v", f2)
	}
	f3, _ := FigureByID("3")
	if f3.KeyDist != keys.Uniform8 {
		t.Fatalf("figure 3 = %+v", f3)
	}
	// Machine-specific figure numbers alias the mars panels.
	for _, pair := range [][2]string{{"5a", "4a"}, {"6c", "4c"}, {"7h", "4h"}, {"9b", "8b"}} {
		a, err1 := FigureByID(pair[0])
		b, err2 := FigureByID(pair[1])
		if err1 != nil || err2 != nil || a != b {
			t.Fatalf("alias %s != %s (%v, %v)", pair[0], pair[1], err1, err2)
		}
	}
	// An error names the identifier as given, not the panel it aliases.
	for _, id := range []string{"4z", "9z", " 5Z", ""} {
		_, err := FigureByID(id)
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("unknown figure %q", id)) {
			t.Fatalf("FigureByID(%q) error = %v, want it to name %q", id, err, id)
		}
	}
}

func TestParseThreads(t *testing.T) {
	ts, err := ParseThreads("1, 2,8")
	if err != nil || len(ts) != 3 || ts[0] != 1 || ts[2] != 8 {
		t.Fatalf("ParseThreads = %v, %v", ts, err)
	}
	if _, err := ParseThreads("0"); err == nil {
		t.Fatal("zero thread count accepted")
	}
	if _, err := ParseThreads("a,b"); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := ParseThreads(" , "); err == nil {
		t.Fatal("empty list accepted")
	}
}

func TestParseList(t *testing.T) {
	got := ParseList(" a, b ,,c ")
	if len(got) != 3 || got[0] != "a" || got[1] != "b" || got[2] != "c" {
		t.Fatalf("ParseList = %v", got)
	}
	if got := ParseList(""); got != nil {
		t.Fatalf("ParseList(\"\") = %v", got)
	}
}

func TestTableAlignment(t *testing.T) {
	var tb Table
	tb.AddRow("name", "v")
	tb.AddRow("longername", "10")
	out := tb.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("%d lines", len(lines))
	}
	if len(lines[0]) != len(lines[1]) {
		t.Fatalf("misaligned rows:\n%s", out)
	}
	if !strings.HasPrefix(lines[1], "longername") {
		t.Fatalf("first column not left-aligned:\n%s", out)
	}
}

func TestTableEmpty(t *testing.T) {
	var tb Table
	if tb.String() != "" || tb.Markdown() != "" {
		t.Fatal("empty table rendered non-empty")
	}
}

func TestTableMarkdown(t *testing.T) {
	var tb Table
	tb.AddRow("h1", "h2")
	tb.AddRow("a", "b")
	md := tb.Markdown()
	want := "| h1 | h2 |\n|---|---|\n| a | b |\n"
	if md != want {
		t.Fatalf("markdown = %q, want %q", md, want)
	}
}

func TestTableByID(t *testing.T) {
	t1, err := TableByID("1")
	if err != nil {
		t.Fatal(err)
	}
	t2a, _ := TableByID("2a")
	if t1 != t2a {
		t.Fatal("table 1 != 2a")
	}
	f4e, _ := FigureByID("4e")
	t2e, err := TableByID("2e")
	if err != nil || t2e != f4e {
		t.Fatalf("table 2e != figure 4e (%v)", err)
	}
	f8b, _ := FigureByID("8b")
	t5b, err := TableByID("5b")
	if err != nil || t5b != f8b {
		t.Fatalf("table 5b != figure 8b (%v)", err)
	}
	for _, pair := range [][2]string{{"3c", "2c"}, {"4h", "2h"}} {
		a, err1 := TableByID(pair[0])
		b, err2 := TableByID(pair[1])
		if err1 != nil || err2 != nil || a != b {
			t.Fatalf("table alias %s != %s", pair[0], pair[1])
		}
	}
	for _, id := range []string{"6a", "3z", "5d", "1x", ""} {
		_, err := TableByID(id)
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("unknown table %q", id)) {
			t.Fatalf("TableByID(%q) error = %v, want it to name table %q", id, err, id)
		}
	}
}

func TestExpandQueues(t *testing.T) {
	got := ExpandQueues([]string{"engineered", "linden"})
	want := []string{"multiq", "multiq-s4-b8", "klsm4096", "linden"}
	if len(got) != len(want) {
		t.Fatalf("ExpandQueues = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ExpandQueues = %v, want %v", got, want)
		}
	}
	if got := ExpandQueues([]string{"PAPER"}); len(got) != 7 {
		t.Fatalf("paper alias expanded to %d queues, want 7", len(got))
	}
	if got := ExpandQueues([]string{"multiq"}); len(got) != 1 || got[0] != "multiq" {
		t.Fatalf("plain name not passed through: %v", got)
	}
	got = ExpandQueues([]string{"klsm"})
	want = []string{"klsm128", "klsm256", "klsm4096"}
	if len(got) != len(want) {
		t.Fatalf("klsm alias = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("klsm alias = %v, want %v", got, want)
		}
	}
}
