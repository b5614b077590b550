package clipindex

import (
	"math/rand"
	"testing"

	"cbb/internal/core"
	"cbb/internal/geom"
	"cbb/internal/rtree"
)

// BenchmarkClipAdmission isolates the Algorithm-2 admission test that the
// clipped search path runs once per candidate child: look up the child's clip
// points and decide whether the query's overlap with the child MBB is
// entirely certified dead space. One iteration admits every (child, query)
// pair of a fixed candidate set, so ns/op tracks the per-batch admission cost.
func BenchmarkClipAdmission(b *testing.B) {
	rng := rand.New(rand.NewSource(42))
	tree, _ := buildClusteredTree(b, rng, rtree.RRStar, 6000)
	idx, err := New(tree, core.Params{K: 8, Tau: 0.01, Method: core.MethodStairline})
	if err != nil {
		b.Fatal(err)
	}
	type cand struct {
		id  rtree.NodeID
		mbb geom.Rect
	}
	var cands []cand
	tree.Walk(func(info rtree.NodeInfo) {
		if !info.Leaf {
			for i := range info.Children {
				cands = append(cands, cand{id: info.Children[i].Child, mbb: info.Rect(i)})
			}
		}
	})
	queries := make([]geom.Rect, 64)
	for i := range queries {
		queries[i] = randRect(rng, 2, 950, 50)
	}
	admitted := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := queries[i%len(queries)]
		for _, c := range cands {
			if idx.AdmitChild(c.id, c.mbb, q) {
				admitted++
			}
		}
	}
	b.StopTimer()
	if admitted == 0 {
		b.Fatal("no candidate admitted; benchmark is vacuous")
	}
	b.ReportMetric(float64(len(cands)), "children/op")
}
