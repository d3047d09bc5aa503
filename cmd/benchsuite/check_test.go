package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeBaseline marshals an artifact to a temp file and returns its path.
func writeBaseline(t *testing.T, art benchArtifact) string {
	t.Helper()
	raw, err := json.Marshal(art)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "baseline.json")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// supportArt builds an artifact with one merge + one oriented row.
func supportArt(mergeSec, orientedSec float64) benchArtifact {
	return benchArtifact{
		GitRev: "testrev",
		SupportBench: []supportRow{
			{Dataset: "d", Kernel: "merge", Seconds: mergeSec},
			{Dataset: "d", Kernel: "oriented", Seconds: orientedSec},
		},
	}
}

// peelArt builds an artifact with one levelsync + one pkt row.
func peelArt(lsSec, pktSec float64) benchArtifact {
	return benchArtifact{
		GitRev: "testrev",
		PeelBench: []peelRow{
			{Dataset: "d", Kernel: "levelsync", Seconds: lsSec},
			{Dataset: "d", Kernel: "pkt", Seconds: pktSec},
		},
	}
}

func TestCheckPassesOnMatchingRatios(t *testing.T) {
	base := supportArt(1.0, 0.5)
	base.PeelBench = peelArt(1.0, 0.4).PeelBench
	cur := supportArt(0.8, 0.4) // same ratios, faster machine
	cur.PeelBench = peelArt(0.5, 0.2).PeelBench
	if err := checkAgainstBaseline(writeBaseline(t, base), &cur); err != nil {
		t.Fatalf("matching ratios rejected: %v", err)
	}
}

func TestCheckFailsOnRegression(t *testing.T) {
	base := peelArt(1.0, 0.4)
	cur := peelArt(1.0, 0.8) // pkt ratio 0.8 vs baseline 0.4: 2x regression
	err := checkAgainstBaseline(writeBaseline(t, base), &cur)
	if err == nil || !strings.Contains(err.Error(), "regression") {
		t.Fatalf("2x peel regression not caught: %v", err)
	}
}

// TestCheckFailsLoudlyOnMissingBaselineRow pins the satellite bugfix: a
// current-run row with no counterpart in the baseline used to be skipped
// (the gate silently passed); it must be a loud error telling the operator
// to regenerate the baseline.
func TestCheckFailsLoudlyOnMissingBaselineRow(t *testing.T) {
	// Baseline has peel rows (so the "no peel_bench rows at all" guard does
	// not fire) but for a different dataset than the current run measures.
	base := peelArt(1.0, 0.4)
	for i := range base.PeelBench {
		base.PeelBench[i].Dataset = "other"
	}
	cur := peelArt(1.0, 0.4)
	err := checkAgainstBaseline(writeBaseline(t, base), &cur)
	if err == nil || !strings.Contains(err.Error(), "levelsync row") {
		t.Fatalf("missing baseline levelsync row passed silently: %v", err)
	}

	// Baseline has the levelsync normalizer but not the pkt cell itself.
	base = peelArt(1.0, 0.4)
	base.PeelBench = base.PeelBench[:1]
	err = checkAgainstBaseline(writeBaseline(t, base), &cur)
	if err == nil || !strings.Contains(err.Error(), "cannot pass by omission") {
		t.Fatalf("missing baseline pkt row passed silently: %v", err)
	}

	// The same discipline guards the support gate.
	sbase := supportArt(1.0, 0.5)
	sbase.SupportBench = sbase.SupportBench[:1]
	scur := supportArt(1.0, 0.5)
	err = checkAgainstBaseline(writeBaseline(t, sbase), &scur)
	if err == nil || !strings.Contains(err.Error(), "cannot pass by omission") {
		t.Fatalf("missing baseline support row passed silently: %v", err)
	}
}

// TestCheckFailsLoudlyOnMissingNormalizer: a current run without its own
// normalizer row (e.g. `-experiment peel` filtered to one explicit kernel)
// must fail rather than form no ratios and pass.
func TestCheckFailsLoudlyOnMissingNormalizer(t *testing.T) {
	base := peelArt(1.0, 0.4)
	cur := peelArt(1.0, 0.4)
	cur.PeelBench = cur.PeelBench[1:] // pkt row only, no levelsync
	err := checkAgainstBaseline(writeBaseline(t, base), &cur)
	if err == nil || !strings.Contains(err.Error(), "no levelsync row to normalize") {
		t.Fatalf("missing current-run normalizer passed silently: %v", err)
	}
}

// TestCheckSkipsBelowNoiseFloor: sub-noise cells stay silently skipped —
// the loud-failure rule is about missing rows, not unmeasurable ones. With
// every cell below the floor, the gate reports "no comparable rows".
func TestCheckSkipsBelowNoiseFloor(t *testing.T) {
	base := peelArt(0.0005, 0.0004)
	cur := peelArt(0.0005, 0.0012) // 3x "regression" within the noise floor
	err := checkAgainstBaseline(writeBaseline(t, base), &cur)
	if err == nil || !strings.Contains(err.Error(), "no comparable rows") {
		t.Fatalf("want 'no comparable rows' when all cells are sub-noise, got: %v", err)
	}
	// A Support cell is skipped on its own time too, not just its
	// normalizer's: a 1.5 ms oriented run against a 10 ms merge run is as
	// unmeasurable as the query cells checkQueryRows already skips.
	for _, pair := range [][2]benchArtifact{
		{supportArt(0.010, 0.0005), supportArt(0.010, 0.0015)}, // current cell sub-noise
		{supportArt(0.010, 0.0015), supportArt(0.010, 0.0080)}, // baseline cell sub-noise
	} {
		err := checkAgainstBaseline(writeBaseline(t, pair[0]), &pair[1])
		if err == nil || !strings.Contains(err.Error(), "no comparable rows") {
			t.Fatalf("sub-noise Support cell was gated: %v", err)
		}
	}
}

func TestCheckRejectsBaselineWithoutPeelRows(t *testing.T) {
	base := supportArt(1.0, 0.5) // pre-peel-experiment baseline
	cur := supportArt(1.0, 0.5)
	cur.PeelBench = peelArt(1.0, 0.4).PeelBench
	err := checkAgainstBaseline(writeBaseline(t, base), &cur)
	if err == nil || !strings.Contains(err.Error(), "no peel_bench rows") {
		t.Fatalf("stale baseline without peel rows accepted: %v", err)
	}
}
