package core_test

import (
	"strings"
	"testing"
	"time"

	"equitruss/internal/core"
	"equitruss/internal/obs"
)

func TestTimingsArithmetic(t *testing.T) {
	a := core.Timings{
		Support: 1 * time.Second, TrussDecomp: 2 * time.Second,
		Init: 1 * time.Second, SpNode: 3 * time.Second, SpEdge: 1 * time.Second,
		SmGraph: 1 * time.Second, SpNodeRemap: 1 * time.Second, Threads: 4,
	}
	if a.IndexTotal() != 7*time.Second {
		t.Fatalf("IndexTotal = %v", a.IndexTotal())
	}
	if a.Total() != 10*time.Second {
		t.Fatalf("Total = %v", a.Total())
	}
	b := a.Add(a)
	if b.Total() != 20*time.Second || b.Threads != 4 {
		t.Fatalf("Add = %+v", b)
	}
	// Each literal has the compatibility zero Runs == one run, so the sum
	// holds two runs and Mean recovers the original per-run values.
	if b.Runs != 2 {
		t.Fatalf("Add Runs = %d, want 2", b.Runs)
	}
	mean := b.Mean()
	if mean.Total() != 10*time.Second || mean.SpNode != 3*time.Second || mean.Runs != 1 {
		t.Fatalf("Mean = %+v", mean)
	}
	// Accumulating three runs divides by three, not by a stale count.
	c := b.Add(a)
	if c.Runs != 3 || c.Mean().Total() != 10*time.Second {
		t.Fatalf("triple accumulation: %+v mean %v", c, c.Mean().Total())
	}
}

func TestTimingsBreakdown(t *testing.T) {
	var zero core.Timings
	if zero.Breakdown() != "(no timings)" {
		t.Fatalf("zero breakdown = %q", zero.Breakdown())
	}
	tm := core.Timings{Support: time.Second, SpNode: 3 * time.Second}
	s := tm.Breakdown()
	if !strings.Contains(s, "Support 25.0%") || !strings.Contains(s, "SpNode 75.0%") {
		t.Fatalf("breakdown = %q", s)
	}
	// Kernels that recorded no time are omitted, not shown as 0.0%.
	if strings.Contains(s, "0.0%") || strings.Contains(s, "SpEdge") {
		t.Fatalf("breakdown shows zero kernels: %q", s)
	}
}

func TestTimingsEmitSpans(t *testing.T) {
	tm := core.Timings{Support: time.Second, SpNode: 3 * time.Second}
	tr := obs.NewTrace()
	tm.EmitSpans(tr)
	rep := obs.NewReport(tr, nil)
	if len(rep.Kernels) != 2 {
		t.Fatalf("kernels = %d, want 2 (zero kernels skipped)", len(rep.Kernels))
	}
	if rep.Kernels[0].Name != "Support" || rep.Kernels[1].Name != "SpNode" {
		t.Fatalf("order = %s, %s", rep.Kernels[0].Name, rep.Kernels[1].Name)
	}
	if rep.Kernels[1].Wall != 3*time.Second {
		t.Fatalf("SpNode wall = %v", rep.Kernels[1].Wall)
	}
}
