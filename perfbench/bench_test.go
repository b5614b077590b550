package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"cbb"
)

// benchmarkFile is the part of BENCHMARK.json the tests check against.
type benchmarkFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

var failedZero = regexp.MustCompile(`(?m)^\s*failed_op_ratio\s+0\.0000 ratio$`)

// TestSmoke runs every workload at a tiny size, untraced and traced, and
// checks that the result line carries exactly the metrics BENCHMARK.json
// names, with their units, and that no operation failed. It runs the
// workloads BENCHMARK.json does not gate too: traced runs probe their
// layers.
func TestSmoke(t *testing.T) {
	bf := readBenchmarkFile(t)
	for _, w := range bf.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json names workload %q, which the benchmark lacks", w.Name)
		}
	}
	for _, name := range workloadNames() {
		for _, traced := range []bool{false, true} {
			want := bf.EndToEnd
			if traced {
				want = bf.PerLayer
			}
			t.Run(name+map[bool]string{false: "", true: "/traced"}[traced], func(t *testing.T) {
				var out, errs bytes.Buffer
				cfg := &config{workload: name, seed: 3, measure: 400 * time.Millisecond, small: true, dir: t.TempDir(), report: &out}
				if traced {
					cfg.tracer = newTracer()
				}
				if code := execute(cfg, &errs); code != 0 {
					t.Fatalf("exit %d: %s\n%s", code, errs.String(), out.String())
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var res jsonResult
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the result: %v\n%s", err, out.String())
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("correct=%v failed=%d attempted=%d\n%s", res.Correct, res.Failed, res.Attempted, out.String())
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("result has %d metrics, BENCHMARK.json names %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					if !ok || got.Unit != m.Unit {
						t.Errorf("metric %s: got %+v (present %v), want unit %s", m.Name, got, ok, m.Unit)
					}
				}
				if !failedZero.MatchString(out.String()) {
					t.Errorf("report does not show failed_op_ratio 0:\n%s", out.String())
				}
			})
		}
	}
}

// TestInputsReproducible checks that one seed yields byte-identical inputs
// and that another seed yields different ones, for every workload.
func TestInputsReproducible(t *testing.T) {
	gens := map[string]func(seed int64) [32]byte{
		"mem-query": func(seed int64) [32]byte {
			in, err := genMemQuery(&config{seed: seed, small: true})
			if err != nil {
				t.Fatal(err)
			}
			return hashInputs(in.items, in.ops)
		},
		"cold-open": func(seed int64) [32]byte {
			in, err := genColdOpen(&config{seed: seed, small: true})
			if err != nil {
				t.Fatal(err)
			}
			return hashInputs(in.items, in.queries)
		},
		"ingest-rw": func(seed int64) [32]byte {
			in, err := genIngest(&config{seed: seed, small: true})
			if err != nil {
				t.Fatal(err)
			}
			parts := []any{in.items, in.queries}
			for b := 0; b < 3; b++ {
				ins, rng, err := ingestBatch(seed, len(in.items), b)
				if err != nil {
					t.Fatal(err)
				}
				parts = append(parts, ins, []int{rng.Int()})
			}
			return hashInputs(parts...)
		},
		"serve-http": func(seed int64) [32]byte {
			in, err := genServe(&config{seed: seed, small: true})
			if err != nil {
				t.Fatal(err)
			}
			return hashInputs(in.items, in.reqs, in.insertPool, in.deleteOrder)
		},
	}
	for name := range workloads {
		gen := gens[name]
		if gen == nil {
			t.Errorf("no reproducibility check for workload %s", name)
			continue
		}
		a, b, c := gen(11), gen(11), gen(12)
		if a != b {
			t.Errorf("%s: seed 11 gave different inputs on two calls", name)
		}
		if a == c {
			t.Errorf("%s: seeds 11 and 12 gave the same inputs", name)
		}
	}
}

// hashInputs hashes generated inputs for the reproducibility test.
func hashInputs(parts ...any) [sha256.Size]byte {
	h := sha256.New()
	var buf [8]byte
	f := func(x float64) {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(x))
		h.Write(buf[:])
	}
	rect := func(r cbb.Rect) {
		for d := range r.Lo {
			f(r.Lo[d])
			f(r.Hi[d])
		}
	}
	for _, p := range parts {
		switch v := p.(type) {
		case []cbb.Item:
			for _, it := range v {
				f(float64(it.Object))
				rect(it.Rect)
			}
		case []cbb.Rect:
			for _, r := range v {
				rect(r)
			}
		case []int:
			for _, x := range v {
				f(float64(x))
			}
		case []readOp:
			for _, op := range v {
				f(float64(op.kind))
				switch op.kind {
				case opRange:
					rect(op.q)
				case opKNN:
					for _, c := range op.p {
						f(c)
					}
				case opJoin:
					for _, it := range op.probes {
						f(float64(it.Object))
						rect(it.Rect)
					}
				}
			}
		case []serveReq:
			for _, r := range v {
				f(float64(r.kind))
				for _, q := range r.queries {
					rect(q)
				}
				for _, c := range r.p {
					f(c)
				}
			}
		default:
			panic("hashInputs: unsupported part")
		}
	}
	var out [sha256.Size]byte
	copy(out[:], h.Sum(nil))
	return out
}
