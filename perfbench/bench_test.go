package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"smartssd/workload"
)

// benchmarkSpec is the part of BENCHMARK.json the self-tests check
// against: the workload names and every metric's name and unit.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var s benchmarkSpec
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// runResult runs a workload in process, writing its span log to a
// temporary directory, and parses the last line it prints.
func runResult(t *testing.T, name string, trace bool) (report, string) {
	t.Helper()
	w, ok := findWorkload(name)
	if !ok {
		t.Fatalf("BENCHMARK.json workload %q is unknown to the command", name)
	}
	o := options{seed: 7, seconds: 0.5, trace: trace, spans: filepath.Join(t.TempDir(), "spans.json")}
	var out, errOut bytes.Buffer
	if code := runWorkload(w, o, &out, &errOut); code != 0 {
		t.Fatalf("%s trace=%v: exit %d\nstdout:\n%s\nstderr:\n%s", name, trace, code, out.String(), errOut.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var r report
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatalf("last line is not the result object: %v\n%s", err, out.String())
	}
	return r, out.String()
}

// TestWorkloadsRunAHandfulOfOps runs every workload for half a second,
// untraced and traced (a handful of ops: every loop runs at least
// once), and checks that each prints exactly the metrics BENCHMARK.json
// names, each with its unit, passes the gate and fails no operation.
func TestWorkloadsRunAHandfulOfOps(t *testing.T) {
	spec := loadSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the command has %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if _, ok := findWorkload(w.Name); !ok {
			t.Fatalf("BENCHMARK.json workload %q is unknown to the command", w.Name)
		}
		if testing.Short() && w.Name == "repro-suite" {
			continue
		}
		t.Run(w.Name, func(t *testing.T) {
			for _, trace := range []bool{false, true} {
				want := map[string]string{}
				if !trace {
					for _, m := range spec.EndToEnd {
						want[m.Name] = m.Unit
					}
				} else {
					for _, m := range spec.PerLayer {
						want[m.Name] = m.Unit
					}
				}
				r, out := runResult(t, w.Name, trace)
				if !r.Correct || r.Attempted < 1 || r.Failed != 0 {
					t.Fatalf("trace %v: correct=%v attempted=%d failed=%d", trace, r.Correct, r.Attempted, r.Failed)
				}
				if len(r.Metrics) != len(want) {
					t.Errorf("trace %v: %d metrics, BENCHMARK.json names %d", trace, len(r.Metrics), len(want))
				}
				for name, unit := range want {
					m, ok := r.Metrics[name]
					if !ok || m.Unit != unit {
						t.Errorf("trace %v: metric %s = %+v, want unit %q", trace, name, m, unit)
					}
					if !strings.Contains(out, name) {
						t.Errorf("trace %v: %s not printed by name", trace, name)
					}
				}
				if trace && !strings.Contains(out, "attribution:") {
					t.Errorf("traced run printed no attribution table:\n%s", out)
				}
			}
		})
	}
}

// TestPerLayerListMatchesBenchmarkJSON keeps the command's metric list
// and BENCHMARK.json in step without running anything.
func TestPerLayerListMatchesBenchmarkJSON(t *testing.T) {
	spec := loadSpec(t)
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the command %d", len(spec.PerLayer), len(perLayer))
	}
	for i, m := range perLayer {
		if spec.PerLayer[i].Name != m.name || spec.PerLayer[i].Unit != m.unit {
			t.Errorf("per-layer metric %d: BENCHMARK.json %+v, command %+v", i, spec.PerLayer[i], m)
		}
	}
}

// alterRows changes the first digit inside a body's rows array.
func alterRows(t *testing.T, body []byte) []byte {
	t.Helper()
	i := bytes.Index(body, []byte(`"rows"`))
	if i < 0 {
		t.Fatalf("no rows in %s", body)
	}
	out := append([]byte(nil), body...)
	for j := i; j < len(out); j++ {
		if out[j] >= '0' && out[j] <= '9' {
			out[j] = '0' + (out[j]-'0'+1)%10
			return out
		}
	}
	t.Fatalf("no digit in rows of %s", body)
	return nil
}

// TestGateCatchesAlteredBodies feeds deliberately altered bodies to
// each workload's gate.
func TestGateCatchesAlteredBodies(t *testing.T) {
	t.Run("serve-engine-small", func(t *testing.T) {
		env, err := startServe(engineSmallConfig, 1)
		if err != nil {
			t.Fatal(err)
		}
		defer env.close()
		tenants := engineTenants()
		status, body, err := env.session(tenants[0].body)
		if err != nil || status != http.StatusOK {
			t.Fatalf("session: %d %v", status, err)
		}
		altered := alterRows(t, body)

		r := newReport()
		g := newTenantGate(len(tenants), r)
		if !g.check(0, tenants[0].name, body) || !r.Correct {
			t.Fatal("first answer rejected")
		}
		if g.check(0, tenants[0].name, altered) || r.Correct {
			t.Fatal("a repeat that differs from the first answer passed the gate")
		}

		r = newReport()
		g = newTenantGate(len(tenants), r)
		g.check(0, tenants[0].name, altered)
		if err := g.verifyForceHost(env, tenants); err != nil {
			t.Fatal(err)
		}
		if r.Correct {
			t.Fatal("a first answer that differs from the force-host rows passed the gate")
		}
	})
	t.Run("serve-cluster-mixed", func(t *testing.T) {
		env, err := startServe(clusterMixedConfig, 1)
		if err != nil {
			t.Fatal(err)
		}
		defer env.close()
		ops := workload.MixedOps(7, 3)
		status, body, err := env.session([]byte(ops[0].Body))
		if err != nil || status != http.StatusOK {
			t.Fatalf("session: %d %v", status, err)
		}
		r := newReport()
		g, err := newClusterGate(env, ops, r)
		if err != nil {
			t.Fatal(err)
		}
		if ok, err := g.check(mixedOutcome{op: 0, status: status, body: body}); err != nil || !ok || !r.Correct {
			t.Fatalf("true answer rejected: ok=%v err=%v %v", ok, err, r.mismatches)
		}
		if ok, _ := g.check(mixedOutcome{op: 0, status: status, body: alterRows(t, body)}); ok || r.Correct {
			t.Fatal("an altered cluster read passed the gate")
		}
	})
}

func TestQuantile(t *testing.T) {
	vs := []float64{4, 1, 3, 2}
	if got := median(vs); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if got := quantile(vs, 1); got != 4 {
		t.Errorf("max = %v, want 4", got)
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("empty quantile = %v, want 0", got)
	}
}
