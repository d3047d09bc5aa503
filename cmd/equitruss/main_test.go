package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"equitruss"
)

func TestParseVariant(t *testing.T) {
	cases := map[string]equitruss.Variant{
		"serial": equitruss.Serial, "original": equitruss.Serial,
		"baseline": equitruss.Baseline, "sv": equitruss.Baseline,
		"coptimal": equitruss.COptimal, "C-Optimal": equitruss.COptimal, "copt": equitruss.COptimal,
		"afforest": equitruss.Afforest, "AFF": equitruss.Afforest,
	}
	for in, want := range cases {
		got, err := parseVariant(in)
		if err != nil || got != want {
			t.Errorf("parseVariant(%q) = (%v, %v), want %v", in, got, err, want)
		}
	}
	if _, err := parseVariant("bogus"); err == nil {
		t.Error("bogus variant accepted")
	}
}

func TestLoadGraphDatasetSpec(t *testing.T) {
	g, err := loadGraph("dataset:amazon-sim:0.05")
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() == 0 {
		t.Fatal("empty dataset")
	}
	if _, err := loadGraph("dataset:nonexistent"); err == nil {
		t.Fatal("unknown dataset accepted")
	}
	if _, err := loadGraph("dataset:amazon-sim:notanumber"); err == nil {
		t.Fatal("bad factor accepted")
	}
	if _, err := loadGraph("/no/such/file.txt"); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestLoadGraphFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "g.txt")
	if err := os.WriteFile(path, []byte("0 1\n1 2\n0 2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	g, err := loadGraph(path)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 3 {
		t.Fatalf("edges = %d", g.NumEdges())
	}
}

func TestRunBuildQueryStatsEndToEnd(t *testing.T) {
	dir := t.TempDir()
	gpath := filepath.Join(dir, "g.txt")
	// Figure-3-like input: a 5-clique plus pendant.
	content := ""
	for u := 0; u < 5; u++ {
		for v := u + 1; v < 5; v++ {
			content += itoa(u) + " " + itoa(v) + "\n"
		}
	}
	content += "4 5\n"
	if err := os.WriteFile(gpath, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	ipath := filepath.Join(dir, "g.idx")
	if err := runBuild([]string{"-graph", gpath, "-variant", "coptimal", "-out", ipath}); err != nil {
		t.Fatalf("build: %v", err)
	}
	if _, err := os.Stat(ipath); err != nil {
		t.Fatalf("index not written: %v", err)
	}
	// query -index takes serve's load path: the file is mapped, not
	// stream-decoded into heap arrays.
	mmapLoads := func() int64 {
		for _, c := range equitruss.Counters() {
			if c.Name == "graphio_mmap_loads" {
				return c.Value
			}
		}
		return 0
	}
	before := mmapLoads()
	if err := runQuery([]string{"-graph", gpath, "-index", ipath, "-vertex", "0", "-k", "5"}); err != nil {
		t.Fatalf("query via index: %v", err)
	}
	if got := mmapLoads(); got != before+1 {
		t.Fatalf("query -index: graphio_mmap_loads went %d -> %d, want one mmap load", before, got)
	}
	if err := runQuery([]string{"-graph", gpath, "-variant", "afforest", "-vertex", "0", "-k", "3"}); err != nil {
		t.Fatalf("query via fresh build: %v", err)
	}
	if err := runStats([]string{"-graph", gpath}); err != nil {
		t.Fatalf("stats: %v", err)
	}
}

func TestRunBuildErrors(t *testing.T) {
	if err := runBuild([]string{}); err == nil {
		t.Error("missing -graph accepted")
	}
	if err := runBuild([]string{"-graph", "g.txt", "-variant", "bogus"}); err == nil {
		t.Error("bad variant accepted")
	}
	if err := runQuery([]string{"-graph", "g.txt"}); err == nil {
		t.Error("missing -vertex accepted")
	}
	if err := runStats([]string{}); err == nil {
		t.Error("stats without -graph accepted")
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b []byte
	for n > 0 {
		b = append([]byte{byte('0' + n%10)}, b...)
		n /= 10
	}
	return string(b)
}

func TestRunExport(t *testing.T) {
	dir := t.TempDir()
	gpath := filepath.Join(dir, "g.txt")
	if err := os.WriteFile(gpath, []byte("0 1\n1 2\n0 2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	dotPath := filepath.Join(dir, "s.dot")
	if err := runExport([]string{"-graph", gpath, "-what", "summary", "-out", dotPath}); err != nil {
		t.Fatalf("export summary: %v", err)
	}
	data, err := os.ReadFile(dotPath)
	if err != nil || len(data) == 0 {
		t.Fatalf("dot output: %v len=%d", err, len(data))
	}
	if err := runExport([]string{"-graph", gpath, "-what", "graph", "-out", filepath.Join(dir, "g.dot")}); err != nil {
		t.Fatalf("export graph: %v", err)
	}
	if err := runExport([]string{"-graph", gpath, "-what", "bogus"}); err == nil {
		t.Fatal("bogus export kind accepted")
	}
	if err := runExport([]string{}); err == nil {
		t.Fatal("missing -graph accepted")
	}
}

func TestRunBuildObservabilityFlags(t *testing.T) {
	dir := t.TempDir()
	gpath := filepath.Join(dir, "g.txt")
	content := ""
	for u := 0; u < 6; u++ {
		for v := u + 1; v < 6; v++ {
			content += itoa(u) + " " + itoa(v) + "\n"
		}
	}
	if err := os.WriteFile(gpath, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	tpath := filepath.Join(dir, "trace.json")
	ppath := filepath.Join(dir, "cpu.out")
	err := runBuild([]string{"-graph", gpath, "-variant", "afforest",
		"-trace", tpath, "-counters", "-pprof", ppath})
	if err != nil {
		t.Fatalf("traced build: %v", err)
	}
	raw, err := os.ReadFile(tpath)
	if err != nil {
		t.Fatalf("trace not written: %v", err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
			PID  int    `json:"pid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	kernels := map[string]bool{}
	threadSpans := 0
	for _, e := range doc.TraceEvents {
		if e.Ph != "X" {
			continue
		}
		if e.PID == 1 {
			kernels[e.Name] = true
		} else {
			threadSpans++
		}
	}
	for _, k := range []string{"Support", "TrussDecomp", "SpNode", "SpEdge", "SmGraph"} {
		if !kernels[k] {
			t.Errorf("trace lacks pipeline span for %s", k)
		}
	}
	if threadSpans == 0 {
		t.Error("trace lacks per-thread spans")
	}
	if fi, err := os.Stat(ppath); err != nil || fi.Size() == 0 {
		t.Fatalf("cpu profile not written: %v", err)
	}
}

func TestRunStatsJSON(t *testing.T) {
	dir := t.TempDir()
	gpath := filepath.Join(dir, "g.txt")
	content := ""
	for u := 0; u < 5; u++ {
		for v := u + 1; v < 5; v++ {
			content += itoa(u) + " " + itoa(v) + "\n"
		}
	}
	if err := os.WriteFile(gpath, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	out := captureStdout(t, func() {
		tpath := filepath.Join(dir, "t.json")
		if err := runStats([]string{"-graph", gpath, "-json", "-trace", tpath}); err != nil {
			t.Errorf("stats -json: %v", err)
		}
	})
	// Everything before the trailing trace confirmation must be one JSON doc.
	dec := json.NewDecoder(strings.NewReader(out))
	var doc struct {
		Graph struct {
			Vertices int64 `json:"vertices"`
			Edges    int64 `json:"edges"`
		} `json:"graph"`
		KMax           int32 `json:"kmax"`
		TrussHistogram []struct {
			K     int32 `json:"k"`
			Edges int64 `json:"edges"`
		} `json:"truss_histogram"`
		Report struct {
			Kernels []struct {
				Name string `json:"name"`
			} `json:"kernels"`
		} `json:"report"`
	}
	if err := dec.Decode(&doc); err != nil {
		t.Fatalf("stats -json output is not JSON: %v\n%s", err, out)
	}
	if doc.Graph.Vertices != 5 || doc.Graph.Edges != 10 {
		t.Fatalf("graph doc = %+v", doc.Graph)
	}
	if doc.KMax != 5 {
		t.Fatalf("kmax = %d, want 5 (5-clique)", doc.KMax)
	}
	if len(doc.TrussHistogram) == 0 || len(doc.Report.Kernels) == 0 {
		t.Fatalf("histogram/report empty: %+v", doc)
	}
}

// captureStdout runs f with os.Stdout redirected into a pipe and returns
// what it printed.
func captureStdout(t *testing.T, f func()) string {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	done := make(chan string)
	go func() {
		var b strings.Builder
		io.Copy(&b, r)
		done <- b.String()
	}()
	defer func() {
		os.Stdout = old
	}()
	f()
	w.Close()
	os.Stdout = old
	return <-done
}

// TestRunQueryVertexOutOfRange covers the out-of-range fix: a vertex past
// the graph must produce a descriptive error, not an index-out-of-range
// panic inside MaxK/Communities.
func TestRunQueryVertexOutOfRange(t *testing.T) {
	dir := t.TempDir()
	gpath := filepath.Join(dir, "g.txt")
	if err := os.WriteFile(gpath, []byte("0 1\n1 2\n0 2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	err := runQuery([]string{"-graph", gpath, "-variant", "serial", "-vertex", "999", "-k", "3"})
	if err == nil {
		t.Fatal("out-of-range vertex accepted")
	}
	if !strings.Contains(err.Error(), "outside [0,") {
		t.Fatalf("error %q does not describe the valid range", err)
	}
}
