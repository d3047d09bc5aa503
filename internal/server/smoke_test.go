package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"equitruss/internal/obs"
)

// TestServerSmokeConcurrent hammers one handler with 64 concurrent clients
// mixing single queries, half of them asking for vertex lists, with
// periodic batches — the `make serversmoke` target runs it under -race at
// one and four CPUs so the epoch pointer, the hierarchy's vertex-memo CAS,
// the worker pool, and the shared index traversals are exercised for data
// races, and every response is cross-checked against a pre-computed oracle.
func TestServerSmokeConcurrent(t *testing.T) {
	idx, _ := buildTestIndex(t)
	// A small pool forces slot contention.
	ts := httptest.NewServer(New(idx, Config{Workers: 4}).Handler())
	defer ts.Close()
	reservations := cPoolReservations.Value()
	fills := obs.GetCounter("hierarchy_vertex_memo_fills", "")
	fillsBefore := fills.Value()

	n := idx.G.NumVertices()
	const clients = 64
	const perClient = 25
	// Oracle: expected community count per (v, k), computed single-threaded
	// before the storm.
	type vk struct{ v, k int32 }
	oracle := make(map[vk]int)
	for v := int32(0); v < 40 && v < n; v++ {
		for _, k := range []int32{3, 4} {
			oracle[vk{v, k}] = len(idx.Communities(v, k))
		}
	}

	var wg sync.WaitGroup
	errc := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			client := ts.Client()
			for i := 0; i < perClient; i++ {
				// Mix: mostly singles over a small vertex range, so
				// clients race to fill the same communities' vertex
				// memos; every 5th request a batch (pool fan-out).
				v := int32((c*7 + i) % 40)
				if v >= n {
					v = 0
				}
				k := int32(3 + (c+i)%2)
				switch {
				case i%5 == 0:
					body := fmt.Sprintf(`{"queries":[{"v":%d,"k":%d},{"v":%d,"k":%d}]}`, v, k, (v+1)%40, k)
					resp, err := client.Post(ts.URL+"/batch", "application/json", strings.NewReader(body))
					if err != nil {
						errc <- err
						return
					}
					var out batchResponse
					err = json.NewDecoder(resp.Body).Decode(&out)
					resp.Body.Close()
					if err != nil || resp.StatusCode != http.StatusOK || len(out.Results) != 2 {
						errc <- fmt.Errorf("batch: status %d, %d results, err %v", resp.StatusCode, len(out.Results), err)
						return
					}
					for _, r := range out.Results {
						if want, ok := oracle[vk{r.Vertex, r.K}]; ok && r.Count != want {
							errc <- fmt.Errorf("batch (%d,%d): count %d, want %d", r.Vertex, r.K, r.Count, want)
							return
						}
					}
				default:
					resp, err := client.Get(fmt.Sprintf("%s/community?v=%d&k=%d&vertices=%d", ts.URL, v, k, i%2))
					if err != nil {
						errc <- err
						return
					}
					var doc queryDoc
					err = json.NewDecoder(resp.Body).Decode(&doc)
					resp.Body.Close()
					if err != nil || resp.StatusCode != http.StatusOK {
						errc <- fmt.Errorf("single (%d,%d): status %d, err %v", v, k, resp.StatusCode, err)
						return
					}
					if want, ok := oracle[vk{v, k}]; ok && doc.Count != want {
						errc <- fmt.Errorf("single (%d,%d): count %d, want %d", v, k, doc.Count, want)
						return
					}
					for _, c := range doc.Communities {
						if i%2 == 1 && len(c.Vertices) != c.Size {
							errc <- fmt.Errorf("single (%d,%d): %d vertices listed, size %d", v, k, len(c.Vertices), c.Size)
							return
						}
					}
				}
			}
		}(c)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	// Every request reserved at least one pool slot, and the vertex-list
	// requests filled memos: the storm ran the whole read path.
	if got := cPoolReservations.Value() - reservations; got < clients*perClient {
		t.Errorf("smoke storm made %d pool reservations for %d requests", got, clients*perClient)
	}
	if fills.Value() == fillsBefore {
		t.Error("smoke storm filled no vertex memo")
	}
}
