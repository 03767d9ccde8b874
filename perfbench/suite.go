package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"runtime"
	"strings"
	"time"

	"smartssd/internal/core"
	"smartssd/internal/experiments"
	"smartssd/internal/serve"
	"smartssd/internal/sql"
)

// suiteSF puts lineitem (about 1,180 PAX pages per 0.01 SF) above the
// 8192-frame buffer pool, so scans evict.
const suiteSF = 0.08

// suiteSynthR sizes Figure 5's synthetic join (|S| = 400 x |R|).
const suiteSynthR = 100

// suiteOptions is the reproduction's fixed dataset: the experiments'
// default data seed, as cmd/benchsuite uses it. The data seed is not
// the workload seed, because the dataset moves every figure's cost.
func suiteOptions(par int) experiments.Options {
	return experiments.Options{SF: suiteSF, SynthR: suiteSynthR, Seed: 1, Parallelism: par}
}

// suitePass is one warm pass's rendered artifacts and per-experiment
// wall times.
type suitePass struct {
	render []byte
	times  [4]time.Duration // Fig3, Fig5, Fig7, Table3
}

var suiteExperiments = [4]string{"fig3", "fig5", "fig7", "table3"}

// passOrder is the order a pass runs the four experiments in: a
// permutation drawn from the workload seed, the same for every pass of
// a run.
func passOrder(seed int64) [4]int {
	order := [4]int{0, 1, 2, 3}
	for i := 3; i > 0; i-- {
		j := int(mix(seed, i) % uint64(i+1))
		order[i], order[j] = order[j], order[i]
	}
	return order
}

// runPass regenerates Fig3, Fig5, Fig7 and Table3 on a suite in the
// given order; the rendered bytes are always in figure order. With a
// tracer, each experiment call is a span of op under suite.pass.
func runPass(s *experiments.Suite, order [4]int, tr *tracer, op int) (suitePass, error) {
	var p suitePass
	steps := [4]func() (string, error){
		func() (string, error) { r, err := s.Fig3(); return r.Render(), err },
		func() (string, error) { r, err := s.Fig5(nil); return r.Render(), err },
		func() (string, error) { r, err := s.Fig7(); return r.Render(), err },
		func() (string, error) { r, err := s.Table3(); return r.Render(), err },
	}
	var outs [4]string
	for _, i := range order {
		step := steps[i]
		var out string
		var err error
		call := func() { out, err = step() }
		if tr != nil {
			p.times[i] = tr.do(op, "experiments."+suiteExperiments[i], "suite.pass", call)
		} else {
			p.times[i] = timed(call)
		}
		if err != nil {
			return p, err
		}
		outs[i] = out
	}
	p.render = []byte(strings.Join(outs[:], ""))
	return p, nil
}

// suiteEnv is a built suite and its first (set-up) pass.
type suiteEnv struct {
	s     *experiments.Suite
	order [4]int
	first suitePass
}

// buildSuite creates a suite and runs its first pass, which loads the
// base engines and clones the workers.
func buildSuite(seed int64, par int) (*suiteEnv, error) {
	s := experiments.NewSuite(suiteOptions(par))
	order := passOrder(seed)
	first, err := runPass(s, order, nil, 0)
	if err != nil {
		s.Close()
		return nil, err
	}
	return &suiteEnv{s: s, order: order, first: first}, nil
}

// pass runs one pass of the suite in its order.
func (e *suiteEnv) pass(tr *tracer, op int) (suitePass, error) {
	return runPass(e.s, e.order, tr, op)
}

func (e *suiteEnv) close() error { e.s.Close(); return nil }

// suitePar is the measured passes' parallelism. Serial passes: at
// NumCPU workers on a two-core box the pass time drifted by up to 25%
// between runs with the load of the machine, more than serial passes
// spread over ten seeds. runner.speedup compares the two in the traced
// run.
const suitePar = 1

// suiteSetups is how many times a run builds the suite for setup_s.
const suiteSetups = 3

func runReproSuite(o options, r *report) error {
	env, err := setupRepeated(o, r, suiteSetups, func() (*suiteEnv, error) { return buildSuite(o.seed, suitePar) }, (*suiteEnv).close)
	if err != nil {
		return err
	}
	defer env.close()
	r.printf("virtual-time digest (rendered artifacts): %x", sha256Short(env.first.render))
	// One unmeasured pass lets the workers' arenas and the simulator
	// calendars reach their steady shapes after the set-up pass.
	if _, err := env.pass(nil, 0); err != nil {
		return err
	}
	if o.trace {
		return traceReproSuite(o, r, env)
	}

	dur := time.Duration(o.seconds * float64(time.Second))
	var passes []float64
	okPasses := 0
	t0 := time.Now()
	for time.Since(t0) < dur {
		var p suitePass
		d := timed(func() { p, err = env.pass(nil, 0) })
		if err != nil {
			return err
		}
		passes = append(passes, d.Seconds())
		if bytes.Equal(p.render, env.first.render) {
			okPasses++
		} else {
			r.mismatch("suite pass %d rendered different bytes from the first pass:\n%s\nvs first\n%s",
				len(passes), p.render, env.first.render)
		}
	}
	wall := time.Since(t0)
	r.Attempted = len(passes)
	r.Failed = len(passes) - okPasses
	lat := make([]float64, len(passes))
	for i, p := range passes {
		lat[i] = p * 1000
	}
	r.set("ok_ops_per_s", float64(okPasses)/wall.Seconds(), "1/s")
	r.set("read_p50_ms", quantile(lat, 0.50), "ms")
	r.set("read_p99_ms", quantile(lat, 0.99), "ms")
	r.set("suite_pass_s", median(passes), "s")
	r.printf("loop: %d suite passes in %.3fs at parallelism %d", len(passes), wall.Seconds(), suitePar)
	r.set("live_heap_mb", liveHeapMB(), "MB")
	runtime.KeepAlive(env)
	return nil
}

func sha256Short(b []byte) []byte {
	h := sha256.Sum256(b)
	return h[:8]
}

// suiteQueries are the query-ladder ops of the traced repro-suite run:
// the paper's Q6 and Q14 on the suite's data, forced to each placement
// the figures compare.
var suiteQueries = []struct {
	stmt string
	mode core.Mode
}{
	{q6Stmt, core.ForceHost},
	{q6Stmt, core.ForceDevice},
	{q14Stmt, core.ForceHost},
	{q14Stmt, core.ForceDevice},
}

const (
	q6Stmt = "SELECT SUM(l_extendedprice * l_discount) AS revenue FROM lineitem" +
		" WHERE l_shipdate >= DATE '1994-01-01' AND l_shipdate < DATE '1995-01-01'" +
		" AND l_discount > 5 AND l_discount < 7 AND l_quantity < 2400"
	q14Stmt = "SELECT SUM(CASE WHEN p_type LIKE 'PROMO%' THEN l_extendedprice * (100 - l_discount) / 100 ELSE 0 END) AS promo," +
		" SUM(l_extendedprice * (100 - l_discount) / 100) AS total FROM lineitem, part" +
		" WHERE l_partkey = p_partkey AND l_shipdate >= DATE '1995-09-01' AND l_shipdate < DATE '1995-10-01'"
)

// passLayers is the pass-level attribution table's row order.
var passLayers = []string{"experiments.fig3", "experiments.fig5", "experiments.fig7", "experiments.table3"}

func traceReproSuite(o options, r *report, env *suiteEnv) error {
	dur := time.Duration(o.seconds * float64(time.Second))
	tr := newTracer()
	passes := func(budget time.Duration, trace bool) ([]time.Duration, error) {
		var out []time.Duration
		t0 := time.Now()
		for len(out) == 0 || time.Since(t0) < budget {
			var p suitePass
			var err error
			op := len(out)
			var d time.Duration
			if trace {
				d = tr.do(op, "suite.pass", "", func() { p, err = env.pass(tr, op) })
			} else {
				d = timed(func() { p, err = env.pass(nil, 0) })
			}
			if err != nil {
				return nil, err
			}
			if trace {
				for i, name := range passLayers {
					tr.attribute(name, p.times[i])
					tr.add(name+"_s", p.times[i].Seconds())
				}
			}
			if !bytes.Equal(p.render, env.first.render) {
				r.mismatch("suite pass rendered different bytes from the first pass")
			}
			out = append(out, d)
		}
		return out, nil
	}
	untraced, err := passes(dur*3/10, false)
	if err != nil {
		return err
	}
	traced, err := passes(dur*2/10, true)
	if err != nil {
		return err
	}
	var e2e, tracedSum time.Duration
	for _, d := range traced {
		tracedSum += d
	}
	var u []float64
	for _, d := range untraced {
		u = append(u, d.Seconds())
	}
	perPass := time.Duration(mean(u) * float64(time.Second))
	e2e = perPass * time.Duration(len(traced))
	tr.attribution(r, fmt.Sprintf("repro-suite passes at parallelism %d", suitePar), passLayers, len(traced), e2e)
	tr.set("trace.overhead_us", us(tracedSum-e2e)/float64(len(traced)))
	r.printf("tracing overhead: traced pass %.1f ms vs untraced %.1f ms", ms(tracedSum)/float64(len(traced)), ms(perPass))

	// runner.speedup: the serial passes above against one warm pass on
	// a suite fanned out over every CPU.
	wide, err := buildSuite(o.seed, runtime.NumCPU())
	if err != nil {
		return err
	}
	var pw time.Duration
	pw = timed(func() { _, err = wide.pass(nil, 0) })
	wide.close()
	if err != nil {
		return err
	}
	tr.set("runner.speedup", ratio(perPass.Seconds(), pw.Seconds()))
	r.printf("runner: serial pass %.1f ms, parallelism-%d pass %.1f ms", ms(perPass), runtime.NumCPU(), ms(pw))

	// Query ladder: the paper's queries on the suite's data. The
	// ladder's timed core.engine_run is the untraced run; host and
	// device placements of a statement must return the same rows.
	var eng *core.Engine
	loadT := timed(func() { eng, err = loadEngine(suiteSF, suiteOptions(suitePar).Seed) })
	if err != nil {
		return err
	}
	tr.set("core.load_s", loadT.Seconds())
	lad, err := newEngineLadder(tr, r, eng)
	if err != nil {
		return err
	}
	tr.set("core.clone_ms", ms(lad.cloneTime))
	cat := serve.EngineSchemas{E: eng}
	specs := make([]core.QuerySpec, len(suiteQueries))
	for i, q := range suiteQueries {
		c, err := sql.Compile(cat, q.stmt)
		if err != nil {
			return err
		}
		specs[i] = c.Spec
	}
	wantRows := make(map[string][]byte)
	var qe2e time.Duration
	n := 0
	t0 := time.Now()
	for ; n < len(suiteQueries) || time.Since(t0) < dur/2; n++ {
		q := suiteQueries[n%len(suiteQueries)]
		got, run, err := lad.run(n, specs[n%len(specs)], q.mode, q.stmt)
		if err != nil {
			return spanErr(n, "engine", err)
		}
		qe2e += run
		rows := encodeRows(got.Rows)
		if want, ok := wantRows[q.stmt]; !ok {
			wantRows[q.stmt] = rows
		} else if !bytes.Equal(rows, want) {
			r.mismatch("query ladder op %d: rows differ from the statement's first answer", n)
		}
	}
	tr.attribution(r, "repro-suite query ladder (Q6, Q14 host and device)", engineLayers, n, qe2e)
	r.Attempted = len(untraced) + len(traced) + n
	tr.set("fail_ratio", 0)
	return tr.report(r, o.spans)
}
