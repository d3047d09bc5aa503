package main

import "testing"

func TestGenerateModels(t *testing.T) {
	cases := []params{
		{model: "dataset", name: "amazon-sim", factor: 0.05},
		{model: "rmat", scale: 8, edgefactor: 4, seed: 1},
		{model: "er", n: 200, m: 500, seed: 2},
		{model: "ba", n: 200, k: 3, seed: 3},
		{model: "planted", communities: 5, size: 6, pintra: 0.8, interdeg: 1, seed: 4},
	}
	for _, p := range cases {
		g, err := generate(p)
		if err != nil {
			t.Fatalf("%s: %v", p.model, err)
		}
		if g.NumEdges() == 0 {
			t.Fatalf("%s: empty graph", p.model)
		}
	}
}

func TestGenerateErrors(t *testing.T) {
	if _, err := generate(params{model: "bogus"}); err == nil {
		t.Fatal("unknown model accepted")
	}
	if _, err := generate(params{model: "dataset", name: "bogus"}); err == nil {
		t.Fatal("unknown dataset accepted")
	}
}
