package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"
)

func TestTableRendering(t *testing.T) {
	tb := newTable("Name", "Value")
	tb.row("alpha", 1)
	tb.row("b", 2.5)
	var buf bytes.Buffer
	tb.render(&buf)
	out := buf.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("rendered %d lines:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "Name") {
		t.Fatalf("header line %q", lines[0])
	}
	if !strings.Contains(lines[2], "alpha") || !strings.Contains(lines[2], "1") {
		t.Fatalf("row line %q", lines[2])
	}
	if !strings.Contains(lines[3], "2.50") {
		t.Fatalf("float not formatted: %q", lines[3])
	}
}

func TestPct(t *testing.T) {
	if got := pct(time.Second, 4*time.Second); got != 25 {
		t.Fatalf("pct = %v", got)
	}
	if got := pct(time.Second, 0); got != 0 {
		t.Fatalf("pct of zero total = %v", got)
	}
}

func TestThreadSweep(t *testing.T) {
	cases := map[int][]int{
		1: {1},
		2: {1, 2},
		3: {1, 2, 3},
		8: {1, 2, 4, 8},
		6: {1, 2, 4, 6},
	}
	for max, want := range cases {
		got := threadSweep(max)
		if len(got) != len(want) {
			t.Fatalf("threadSweep(%d) = %v, want %v", max, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("threadSweep(%d) = %v, want %v", max, got, want)
			}
		}
	}
}

func TestDatasetCaching(t *testing.T) {
	cfg := config{scale: 0.05, maxThr: 2}
	g1 := dataset(cfg, "amazon-sim")
	g2 := dataset(cfg, "amazon-sim")
	if g1 != g2 {
		t.Fatal("dataset not cached")
	}
	tau1 := trussness(cfg, "amazon-sim", g1)
	tau2 := trussness(cfg, "amazon-sim", g1)
	if &tau1[0] != &tau2[0] {
		t.Fatal("trussness not cached")
	}
}

// TestExperimentsRunTiny executes every experiment at a tiny scale to keep
// the harness itself covered, and checks that each experiment's tables reach
// the artifact with numeric cells and encode as JSON.
func TestExperimentsRunTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("harness smoke test is slow")
	}
	for _, e := range experiments {
		if e.id == "fig7" {
			continue // friendster-sim is big even at small scale
		}
		t.Run(e.id, func(t *testing.T) {
			cfg := config{scale: 0.02, maxThr: 2, art: &benchArtifact{}}
			e.run(cfg)
			if len(cfg.art.Tables) == 0 {
				t.Fatal("no table reached the artifact")
			}
			for _, tbl := range cfg.art.Tables {
				if tbl.Experiment != e.id || len(tbl.Rows) == 0 {
					t.Fatalf("table %s/%s with %d rows in the %s artifact", tbl.Experiment, tbl.Sub, len(tbl.Rows), e.id)
				}
				for _, r := range tbl.Rows {
					if len(r) != len(tbl.Columns) || !hasNumber(r) {
						t.Fatalf("%s/%s row %v: want %d cells, some numeric", tbl.Experiment, tbl.Sub, r, len(tbl.Columns))
					}
				}
			}
			if _, err := json.Marshal(cfg.art); err != nil {
				t.Fatalf("artifact does not encode: %v", err)
			}
		})
	}
}

func hasNumber(r []interface{}) bool {
	for _, c := range r {
		switch c.(type) {
		case float64, int, int32, int64, uint64:
			return true
		}
	}
	return false
}

// TestMaxThreadsBelowOneRejected: a thread sweep needs at least one thread,
// so -maxthreads below 1 is a usage error (exit 2) before any experiment
// runs.
func TestMaxThreadsBelowOneRejected(t *testing.T) {
	for _, n := range []string{"0", "-3"} {
		if code := run([]string{"-maxthreads", n, "-experiment", "fig6"}); code != 2 {
			t.Fatalf("-maxthreads %s: exit %d, want 2", n, code)
		}
	}
}

func TestTSVSink(t *testing.T) {
	dir := t.TempDir()
	sink := &tsvSink{dir: dir}
	tb := newTable("A", "B")
	tb.row("x", 1)
	if err := sink.write("fig6", "orkut-sim", tb); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(dir + "/fig6_orkut-sim.tsv")
	if err != nil {
		t.Fatal(err)
	}
	want := "A\tB\nx\t1\n"
	if string(data) != want {
		t.Fatalf("tsv = %q, want %q", data, want)
	}
	// nil sink is a no-op.
	var none *tsvSink
	if err := none.write("fig6", "", tb); err != nil {
		t.Fatal(err)
	}
}

func TestSanitize(t *testing.T) {
	if got := sanitize("a/b c.d"); got != "a_b_c_d" {
		t.Fatalf("sanitize = %q", got)
	}
	if got := sanitize("orkut-sim_1"); got != "orkut-sim_1" {
		t.Fatalf("sanitize clean name = %q", got)
	}
}
