package algos

import (
	"testing"

	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/obs"
)

// TestFloatLaneServesPRAndWCC is the float lane's path proof: PageRank and
// WCC on WV under the oracle and db2 profiles fold every MV-join on the
// fused CSR kernel's unboxed float64 lane. A silent fall-back to the boxed
// lane keeps the results identical and only slows the run, so it is pinned
// here on the span's Algo.
func TestFloatLaneServesPRAndWCC(t *testing.T) {
	d, err := dataset.ByCode("WV")
	if err != nil {
		t.Fatal(err)
	}
	g := d.Generate(300, 1)
	for _, prof := range []engine.Profile{engine.OracleLike(), engine.DB2Like()} {
		for _, code := range []string{"PR", "WCC"} {
			a, err := ByCode(code)
			if err != nil {
				t.Fatal(err)
			}
			e := engine.New(prof)
			c := obs.NewCollector()
			e.SetObserver(c)
			if _, err := a.Run(e, g, Params{}); err != nil {
				t.Fatalf("%s %s: %v", prof.Name, code, err)
			}
			n := 0
			for _, sp := range c.Spans() {
				if sp.Op != "mv-join" {
					continue
				}
				n++
				if sp.Algo != "fused-csr f64" {
					t.Errorf("%s %s: mv-join span %d ran %q, want fused-csr f64", prof.Name, code, n, sp.Algo)
				}
			}
			if n == 0 {
				t.Errorf("%s %s: no mv-join span", prof.Name, code)
			}
		}
	}
}
