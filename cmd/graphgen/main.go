// Command graphgen writes synthetic graphs as SNAP-style edge-list files:
// the built-in dataset surrogates, R-MAT, Erdős–Rényi, Barabási–Albert,
// and planted-partition community graphs.
//
// Usage:
//
//	graphgen -model dataset -name orkut-sim -factor 0.5 -out orkut.txt
//	graphgen -model rmat -scale 18 -edgefactor 16 -seed 1 -out rmat.txt
//	graphgen -model planted -communities 100 -size 12 -pintra 0.6 -out comm.txt
//	graphgen -model er -n 100000 -m 500000 -out er.txt
//	graphgen -model ba -n 100000 -k 4 -out ba.txt
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"equitruss/internal/gen"
	"equitruss/internal/graph"
	"equitruss/internal/graphio"
)

// params collects every generator knob; one struct so the generation logic
// is testable apart from flag parsing.
type params struct {
	model       string
	name        string
	factor      float64
	scale       int
	edgefactor  int
	n           int
	m           int64
	k           int
	communities int
	size        int
	pintra      float64
	interdeg    float64
	seed        uint64
}

func generate(p params) (*graph.Graph, error) {
	switch p.model {
	case "dataset":
		spec, err := gen.FindDataset(p.name)
		if err != nil {
			return nil, err
		}
		return spec.Generate(p.factor), nil
	case "rmat":
		return gen.RMAT(p.scale, p.edgefactor, 0.57, 0.19, 0.19, p.seed), nil
	case "er":
		return gen.ErdosRenyi(int32(p.n), p.m, p.seed), nil
	case "ba":
		return gen.BarabasiAlbert(int32(p.n), p.k, p.seed), nil
	case "planted":
		return gen.PlantedPartition(int32(p.communities), int32(p.size), p.pintra, p.interdeg, p.seed), nil
	default:
		return nil, fmt.Errorf("unknown model %q", p.model)
	}
}

func main() {
	var p params
	flag.StringVar(&p.model, "model", "dataset", "dataset|rmat|er|ba|planted")
	flag.StringVar(&p.name, "name", "amazon-sim", "dataset surrogate name (model=dataset)")
	flag.Float64Var(&p.factor, "factor", 1.0, "dataset size factor (model=dataset)")
	flag.IntVar(&p.scale, "scale", 16, "log2 vertices (model=rmat)")
	flag.IntVar(&p.edgefactor, "edgefactor", 16, "edges per vertex (model=rmat)")
	flag.IntVar(&p.n, "n", 10000, "vertices (model=er|ba)")
	flag.Int64Var(&p.m, "m", 50000, "edges (model=er)")
	flag.IntVar(&p.k, "k", 4, "attachment degree (model=ba)")
	flag.IntVar(&p.communities, "communities", 50, "community count (model=planted)")
	flag.IntVar(&p.size, "size", 10, "community size (model=planted)")
	flag.Float64Var(&p.pintra, "pintra", 0.6, "intra-community density (model=planted)")
	flag.Float64Var(&p.interdeg, "interdeg", 1.5, "mean inter-community degree (model=planted)")
	flag.Uint64Var(&p.seed, "seed", 1, "random seed")
	out := flag.String("out", "", "output path ('-' or empty for stdout)")
	flag.Parse()

	g, err := generate(p)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "generated %d vertices, %d edges\n", g.NumVertices(), g.NumEdges())

	w := io.Writer(os.Stdout)
	if *out != "" && *out != "-" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		w = f
	}
	if err := graphio.WriteEdgeList(w, g); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "graphgen:", err)
	os.Exit(1)
}
