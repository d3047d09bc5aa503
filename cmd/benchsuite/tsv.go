package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// tsvSink mirrors every rendered table into a tab-separated file under the
// -out directory, one file per experiment — the gnuplot-ready series behind
// the paper's plots. A nil sink discards.
type tsvSink struct {
	dir string
}

// write saves one table as <dir>/<experiment>[_<suffix>].tsv.
func (s *tsvSink) write(experiment, suffix string, t *table) error {
	if s == nil || s.dir == "" {
		return nil
	}
	if err := os.MkdirAll(s.dir, 0o755); err != nil {
		return err
	}
	name := experiment
	if suffix != "" {
		name += "_" + sanitize(suffix)
	}
	path := filepath.Join(s.dir, name+".tsv")
	var b strings.Builder
	b.WriteString(strings.Join(t.Columns, "\t"))
	b.WriteByte('\n')
	for _, r := range t.formatted() {
		b.WriteString(strings.Join(r, "\t"))
		b.WriteByte('\n')
	}
	return os.WriteFile(path, []byte(b.String()), 0o644)
}

// sanitize makes a network name safe as a filename fragment.
func sanitize(s string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_':
			return r
		default:
			return '_'
		}
	}, s)
}

// emit renders the table to stdout, mirrors it to the TSV sink and appends
// it to the run artifact, reporting sink errors without aborting the
// experiment.
func emit(cfg config, experiment, suffix string, t *table) {
	t.Experiment, t.Sub = experiment, suffix
	t.render(os.Stdout)
	if err := cfg.sink.write(experiment, suffix, t); err != nil {
		fmt.Fprintf(os.Stderr, "benchsuite: tsv write failed: %v\n", err)
	}
	if cfg.art != nil {
		cfg.art.Tables = append(cfg.art.Tables, t)
	}
}
