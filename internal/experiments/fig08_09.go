package experiments

import (
	"fmt"
	"math/rand"

	"cbb/internal/bounding"
	"cbb/internal/core"
	"cbb/internal/geom"
	"cbb/internal/rtree"
)

// boundingMethods builds the eight bounding shapes of Figures 8 and 9 for a
// set of 2d objects.
func boundingMethods(objects []geom.Rect, tau float64) []bounding.Shape {
	return []bounding.Shape{
		bounding.NewMBC(objects),
		bounding.NewMBB(objects),
		bounding.NewRotatedMBB(objects),
		bounding.NewKCornerPolygon(objects, 4),
		bounding.NewKCornerPolygon(objects, 5),
		bounding.NewConvexHull(objects),
		bounding.NewCBBShape(objects, core.Params{K: 8, Tau: tau, Method: core.MethodSkyline}),
		bounding.NewCBBShape(objects, core.Params{K: 8, Tau: tau, Method: core.MethodStairline}),
	}
}

// Fig08Result reproduces Figure 8: dead space of each bounding method on the
// two leaf nodes of the running example.
type Fig08Result struct {
	// DeadSpace[leaf][method] is the dead-space fraction.
	Leaves []map[string]float64
}

// RunFig08 evaluates the eight bounding shapes on the running example's two
// leaf nodes (Figure 3a): the bottom node {o1..o5} and the top node
// {o6, o7}.
func RunFig08(cfg Config) (*Fig08Result, error) {
	cfg = cfg.WithDefaults()
	bottom := []geom.Rect{
		geom.R(0, 4, 3, 10), geom.R(1, 0, 2, 4), geom.R(4, 0, 5, 3),
		geom.R(6, 0, 9, 4), geom.R(8, 2, 10, 3),
	}
	top := []geom.Rect{
		geom.R(11, 6, 14, 12), geom.R(13, 2, 17, 8),
	}
	out := &Fig08Result{}
	for _, objs := range [][]geom.Rect{bottom, top} {
		row := make(map[string]float64)
		for _, s := range boundingMethods(objs, 0) {
			row[s.Name()] = bounding.DeadSpaceFraction(s, objs, 20000, cfg.Seed)
		}
		out.Leaves = append(out.Leaves, row)
	}
	return out, nil
}

// Table renders Figure 8 as one row per leaf node.
func (r *Fig08Result) Table() *Table {
	order := []string{"MBC", "MBB", "RMBB", "4-C", "5-C", "CH", "CBBSKY", "CBBSTA"}
	cols := append([]string{"leaf"}, order...)
	t := NewTable("Figure 8: dead space of bounding methods on the running example", cols...)
	for i, leaf := range r.Leaves {
		row := make([]interface{}, 0, len(cols))
		row = append(row, fmt.Sprintf("node %d", i+1))
		for _, m := range order {
			row = append(row, Pct(leaf[m]))
		}
		t.AddRow(row...)
	}
	return t
}

// Fig09Row is one (dataset, method) pair of Figure 9: average dead space and
// average representation cost over RR*-tree leaf nodes.
type Fig09Row struct {
	Dataset   string
	Method    string
	DeadSpace float64
	Points    float64
}

// Fig09Result reproduces Figure 9 (bounding-method comparison on real
// trees). Restricted to 2d datasets, as in the paper.
type Fig09Result struct {
	Rows []Fig09Row
}

// RunFig09 builds an RR*-tree per 2d dataset, replaces each sampled leaf
// node's MBB by each alternative bounding shape, and reports the average
// dead space and point count per shape.
func RunFig09(cfg Config) (*Fig09Result, error) {
	cfg = cfg.WithDefaults()
	out := &Fig09Result{}
	maxNodes := 200 // sample cap per dataset keeps the experiment fast
	for _, name := range cfg.Datasets {
		ds, err := cfg.LoadDataset(name)
		if err != nil {
			return nil, err
		}
		if ds.Spec.Dims != 2 {
			continue
		}
		tree, _, err := cfg.BuildTree(ds, rtree.RRStar)
		if err != nil {
			return nil, err
		}
		// Collect leaf nodes and sample a subset deterministically.
		var leaves [][]geom.Rect
		tree.Walk(func(info rtree.NodeInfo) {
			if !info.Leaf || len(info.Children) < 2 {
				return
			}
			rects := make([]geom.Rect, len(info.Children))
			for i := range info.Children {
				rects[i] = info.Rect(i)
			}
			leaves = append(leaves, rects)
		})
		rng := rand.New(rand.NewSource(cfg.Seed + 3))
		rng.Shuffle(len(leaves), func(i, j int) { leaves[i], leaves[j] = leaves[j], leaves[i] })
		if len(leaves) > maxNodes {
			leaves = leaves[:maxNodes]
		}
		sums := make(map[string]*Fig09Row)
		for _, objs := range leaves {
			for _, s := range boundingMethods(objs, cfg.Tau) {
				row, ok := sums[s.Name()]
				if !ok {
					row = &Fig09Row{Dataset: name, Method: s.Name()}
					sums[s.Name()] = row
				}
				row.DeadSpace += bounding.DeadSpaceFraction(s, objs, 2048, cfg.Seed)
				row.Points += float64(s.PointCount())
			}
		}
		order := []string{"MBC", "MBB", "RMBB", "4-C", "5-C", "CH", "CBBSKY", "CBBSTA"}
		for _, m := range order {
			row, ok := sums[m]
			if !ok {
				continue
			}
			n := float64(len(leaves))
			out.Rows = append(out.Rows, Fig09Row{
				Dataset: name, Method: m,
				DeadSpace: row.DeadSpace / n,
				Points:    row.Points / n,
			})
		}
	}
	return out, nil
}

// Table renders Figure 9 with one row per (dataset, method).
func (r *Fig09Result) Table() *Table {
	t := NewTable("Figure 9: bounding methods on RR*-tree leaf nodes (2d datasets)",
		"dataset", "method", "avg dead space", "avg #points")
	for _, row := range r.Rows {
		t.AddRow(row.Dataset, row.Method, Pct(row.DeadSpace), row.Points)
	}
	return t
}
