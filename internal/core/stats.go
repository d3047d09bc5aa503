package core

import (
	"fmt"
	"sort"
	"strings"
)

// Stats summarizes a built index: the paper's Table 5 columns plus the
// distributions that explain construction cost (supernode sizes drive SV
// round counts; the k histogram drives Φ_k group sizes).
type Stats struct {
	Supernodes   int32
	Superedges   int64
	IndexedEdges int64 // edges with τ >= 3 (supernode members)
	Tau2Edges    int64 // triangle-free edges outside the index
	KMax         int32
	// KHistogram[k] = number of supernodes with trussness k.
	KHistogram map[int32]int64
	// LargestSupernode is the member count of the biggest supernode.
	LargestSupernode int64
	// MeanSupernodeSize is IndexedEdges / Supernodes.
	MeanSupernodeSize float64
}

// ComputeStats derives Stats from a summary graph.
func (sg *SummaryGraph) ComputeStats() Stats {
	st := Stats{
		Supernodes: sg.NumSupernodes(),
		Superedges: sg.NumSuperedges(),
		KHistogram: make(map[int32]int64),
	}
	for _, t := range sg.Tau {
		if t >= MinK {
			st.IndexedEdges++
		} else {
			st.Tau2Edges++
		}
	}
	for s := int32(0); s < st.Supernodes; s++ {
		k := sg.K[s]
		st.KHistogram[k]++
		if k > st.KMax {
			st.KMax = k
		}
		size := sg.EdgeOffsets[s+1] - sg.EdgeOffsets[s]
		if size > st.LargestSupernode {
			st.LargestSupernode = size
		}
	}
	if st.Supernodes > 0 {
		st.MeanSupernodeSize = float64(st.IndexedEdges) / float64(st.Supernodes)
	}
	return st
}

// String renders the stats as a short report.
func (st Stats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "supernodes=%d superedges=%d indexed-edges=%d tau2-edges=%d kmax=%d largest=%d mean=%.1f",
		st.Supernodes, st.Superedges, st.IndexedEdges, st.Tau2Edges, st.KMax, st.LargestSupernode, st.MeanSupernodeSize)
	if len(st.KHistogram) > 0 {
		ks := make([]int32, 0, len(st.KHistogram))
		for k := range st.KHistogram {
			ks = append(ks, k)
		}
		sort.Slice(ks, func(i, j int) bool { return ks[i] < ks[j] })
		b.WriteString(" k-hist=[")
		for i, k := range ks {
			if i > 0 {
				b.WriteString(" ")
			}
			fmt.Fprintf(&b, "%d:%d", k, st.KHistogram[k])
		}
		b.WriteString("]")
	}
	return b.String()
}
