package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"strings"
	"time"

	"smartssd/internal/core"
	"smartssd/internal/expr"
	"smartssd/internal/page"
	"smartssd/internal/schema"
	"smartssd/internal/serve"
	"smartssd/internal/sim"
	"smartssd/internal/sql"
	"smartssd/internal/wal"
	"smartssd/workload"
)

// catalog binds SQL against one backend of the service, with that
// backend's load-time column stats, as the service's decoder does.
type catalog struct {
	srv     *serve.Server
	cluster bool
}

func (c catalog) TableSchema(name string) (*schema.Schema, error) {
	return c.srv.TargetTableSchema(c.cluster, name)
}

func (c catalog) TableColumnStats(name string) ([]core.ColumnStats, bool) {
	return c.srv.TargetTableStats(c.cluster, name)
}

// frontEnd is the serve-layer top of the ladder for one op: the HTTP
// session itself, then serve.DecodeRequest and the compiler beneath it
// on the same body. It returns the session's status and body, the
// decoded query, and the session and decode wall times.
func frontEnd(tr *tracer, env *serveEnv, op int, body []byte) (status int, resp []byte, q *serve.Query, session, decode time.Duration, err error) {
	session = tr.do(op, "session", "", func() { status, resp, err = env.session(body) })
	if err != nil {
		return
	}
	tr.add("serve.body_bytes", float64(len(resp)))
	var req serve.Request
	if err = json.Unmarshal(body, &req); err != nil {
		return
	}
	decode = tr.do(op, "serve.decode", "session", func() { q, err = serve.DecodeRequest(env.srv, body) })
	if err != nil {
		return
	}
	tr.add("serve.decode_us", us(decode))
	cluster := req.Target == "cluster"
	var below time.Duration
	if req.SQL != "" {
		below = tr.do(op, "sql.compile", "serve.decode", func() {
			_, err = sql.Compile(catalog{srv: env.srv, cluster: cluster}, req.SQL)
		})
		tr.add("sql.compile_us", us(below))
		tr.attribute("sql.compile", below)
	} else {
		var s *schema.Schema
		if s, err = env.srv.TargetTableSchema(cluster, req.Table); err != nil {
			return
		}
		below = tr.do(op, "expr.parse", "serve.decode", func() {
			if req.Predicate != "" {
				_, err = expr.ParsePredicate(s, req.Predicate)
			}
			for _, a := range req.Aggs {
				if a.Expr != "" && err == nil {
					_, err = expr.Parse(s, a.Expr)
				}
			}
			for _, o := range req.Output {
				if err == nil {
					_, err = expr.Parse(s, o.Expr)
				}
			}
			for _, u := range req.Update {
				if err == nil {
					_, err = expr.Parse(s, u.Expr)
				}
			}
		})
		tr.add("expr.parse_us", us(below))
		tr.attribute("expr.parse", below)
	}
	tr.attribute("serve.decode", decode-below)
	return
}

// serveLayers is the attribution table's row order above the engine.
var serveLayers = []string{"serve.overhead", "serve.decode", "sql.compile", "expr.parse"}

// untracedReplay runs the first n ops serially with no
// instrumentation, stopping early once dur has passed, and returns
// each session's wall time and the heap bytes allocated per op (client
// and server together).
func untracedReplay(env *serveEnv, n int, dur time.Duration, body func(i int) []byte) ([]time.Duration, float64, error) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	var lat []time.Duration
	t0 := time.Now()
	for i := 0; i < n && time.Since(t0) < dur; i++ {
		var err error
		d := timed(func() { _, _, err = env.session(body(i)) })
		if err != nil {
			return nil, 0, fmt.Errorf("untraced op %d: %w", i, err)
		}
		lat = append(lat, d)
	}
	runtime.ReadMemStats(&m1)
	return lat, ratio(float64(m1.TotalAlloc-m0.TotalAlloc), float64(len(lat))), nil
}

// finishTrace reports the shared tail of a serve workload's traced run:
// the untraced end-to-end sum over the traced ops, the tracing
// overhead, the attribution table and the per-layer metrics.
func finishTrace(r *report, tr *tracer, o options, title string, layers []string, untraced []time.Duration, traced time.Duration, n int) error {
	var e2e time.Duration
	for _, d := range untraced[:n] {
		e2e += d
	}
	tr.attribution(r, title, layers, n, e2e)
	over := us(traced-e2e) / float64(max(n, 1))
	tr.set("trace.overhead_us", over)
	r.printf("tracing overhead: traced session %.1f us/op vs untraced %.1f us/op (%+.1f us/op, %+.1f%%)",
		us(traced)/float64(max(n, 1)), us(e2e)/float64(max(n, 1)), over, 100*ratio(us(traced-e2e), us(e2e)))
	return tr.report(r, o.spans)
}

// traceSplit is the share of a traced run's seconds given to the
// untraced replay; the traced ladder gets the rest.
const traceSplit = 0.4

func traceEngineSmall(o options, r *report, env *serveEnv, tenants []tenant, draws []int) error {
	body := func(i int) []byte { return tenants[draws[i%len(draws)]].body }
	dur := time.Duration(o.seconds * float64(time.Second))
	untraced, allocs, err := untracedReplay(env, len(draws), time.Duration(traceSplit*float64(dur)), body)
	if err != nil {
		return err
	}
	tr := newTracer()
	tr.set("serve.alloc_kb_per_op", allocs/1024)
	tr.set("core.load_s", env.loadTime.Seconds())
	tr.set("core.clone_ms", ms(env.cloneTime)/float64(env.cfg.workers))
	lad, err := newEngineLadder(tr, r, env.base)
	if err != nil {
		return err
	}
	var traced time.Duration
	n := 0
	t0 := time.Now()
	for ; n < len(untraced) && time.Since(t0) < dur-time.Duration(traceSplit*float64(dur)); n++ {
		status, resp, q, session, decode, err := frontEnd(tr, env, n, body(n))
		if err != nil {
			return spanErr(n, "front end", err)
		}
		if status != http.StatusOK {
			r.mismatch("traced op %d: status %d: %s", n, status, resp)
			continue
		}
		res, run, err := lad.run(n, q.Spec, q.Mode, string(body(n)))
		if err != nil {
			return spanErr(n, "engine", err)
		}
		// The ladder's run must answer what the session answered.
		if got, err := resultRows(resp); err != nil || !bytes.Equal(got, encodeRows(res.Rows)) {
			r.mismatch("traced op %d: ladder rows differ from the session's", n)
		}
		traced += session
		over := session - decode - run
		tr.attribute("serve.overhead", over)
		tr.add("serve.overhead_us", us(over))
	}
	r.Attempted = n
	tr.set("fail_ratio", 0)
	return finishTrace(r, tr, o, "serve-engine-small", append(append([]string{}, serveLayers...), engineLayers...), untraced, traced, n)
}

// clusterLayers is the attribution table's row order below the serve
// layers on the cluster backend.
var clusterLayers = []string{"expr.compile_batch", "core.cluster", "sim.serve"}

// leastLoaded routes each partition's read to the copy with the fewest
// reads routed so far, the lowest device index on ties, as the
// service's router does.
func leastLoaded(devices int) core.RouteFunc {
	loads := make([]int64, devices)
	return func(_ int, cands []int) int {
		best := cands[0]
		for _, c := range cands[1:] {
			if loads[c] < loads[best] || (loads[c] == loads[best] && c < best) {
				best = c
			}
		}
		loads[best]++
		return best
	}
}

// nandTotals sums the page reads and programs of a cluster's devices.
func nandTotals(c *core.Cluster) (reads, programs int64) {
	for i := 0; i < c.Devices(); i++ {
		s := c.Device(i).NANDStats()
		reads += s.Reads
		programs += s.Programs
	}
	return reads, programs
}

// clusterTrace accumulates the traced services of serve-cluster-mixed.
type clusterTrace struct {
	tr  *tracer
	r   *report
	sim *sim.Server

	n           int // ops traced so far; the span op id
	traced      time.Duration
	acked       int
	failed      int
	untilFull   int // acknowledged updates before the first refusal on the last service
	rowsUpdated int64
	durable     uint64
	logPages    int64
	logRegion   int64
}

// service replays ops on a freshly loaded service and, op by op,
// through the ladder on two twin clusters loaded with the same data:
// twin is timed and runs with no tracer, count runs the op again under
// a tracer that counts its sim calls. Updates land on identical data in
// identical order on all three.
func (ct *clusterTrace) service(build func() (*serveEnv, error), ops []workload.MixedOp) error {
	tr, r := ct.tr, ct.r
	env, err := build()
	if err != nil {
		return err
	}
	defer env.close()
	twin, err := loadCluster(env.cfg)
	if err != nil {
		return err
	}
	count, err := loadCluster(env.cfg)
	if err != nil {
		return err
	}
	var calls simCalls
	for i := 0; i < count.Devices(); i++ {
		count.Device(i).SetTracer(calls.record)
	}
	route, countRoute := leastLoaded(twin.Devices()), leastLoaded(count.Devices())
	kern := kernelCache{seen: make(map[string]bool)}
	durable0 := twin.DurableWrites()
	acked, untilFull := 0, -1
	for _, op := range ops {
		n := ct.n
		ct.n++
		status, resp, q, session, decode, err := frontEnd(tr, env, n, []byte(op.Body))
		if err != nil {
			return spanErr(n, "front end", err)
		}
		calls.reset()
		reads0, prog0 := nandTotals(twin)
		var run, simT time.Duration
		var rb resultBody
		_ = json.Unmarshal(resp, &rb) // a refused body has no rows; compared below
		if op.Update {
			count.ResetTiming()
			_, _, cerr := count.Update(q.Req.Table, q.Filter, q.Sets)
			var rows int64
			var uerr error
			run = tr.do(n, "core.cluster_update", "session", func() {
				twin.ResetTiming()
				rows, _, uerr = twin.Update(q.Req.Table, q.Filter, q.Sets)
			})
			if (cerr == nil) != (uerr == nil) {
				r.mismatch("traced op %d: the counting twin's update error %v differs from %v", n, cerr, uerr)
			}
			_, prog1 := nandTotals(twin)
			switch {
			case uerr == nil:
				acked++
				ct.acked++
				ct.rowsUpdated += rows
				tr.add("core.cluster_update_ms.acked", ms(run))
				tr.add("nand.pages_programmed_per_update", float64(prog1-prog0))
				if status != http.StatusOK || len(rb.Rows) != 1 || rb.Rows[0][0] != rows {
					r.mismatch("traced op %d: twin updated %d rows, session answered %d %s", n, rows, status, resp)
				}
			case strings.Contains(uerr.Error(), walFull):
				ct.failed++
				if untilFull < 0 {
					untilFull = acked
				}
				tr.add("core.cluster_update_ms.failed", ms(run))
				if status == http.StatusOK {
					r.mismatch("traced op %d: twin refused an update the session acknowledged", n)
				}
			default:
				return spanErr(n, "cluster update", uerr)
			}
			simT = simReplay(tr, n, "core.cluster_update", ct.sim, calls.calls, 0)
			tr.attribute("core.cluster", run-simT)
		} else {
			compile := kern.visit(tr, n, "core.cluster_run", batchExprs(q.Spec))
			cq := sql.ClusterQueryOf(q.Spec)
			count.ResetTiming()
			counted, cerr := count.RunRouted(cq, countRoute)
			var res *core.ClusterResult
			var rerr error
			run = tr.do(n, "core.cluster_run", "session", func() {
				twin.ResetTiming()
				res, rerr = twin.RunRouted(cq, route)
			})
			if rerr != nil {
				return spanErr(n, "cluster run", rerr)
			}
			if cerr != nil {
				return spanErr(n, "counting cluster run", cerr)
			}
			reads1, _ := nandTotals(twin)
			tr.add("core.cluster_run_ms", ms(run))
			tr.add("nand.pages_read_per_op", float64(reads1-reads0))
			want := encodeRows(res.Rows)
			if got, err := resultRows(resp); err != nil || !bytes.Equal(got, want) {
				r.mismatch("traced op %d: twin rows differ from the session's", n)
			}
			if !bytes.Equal(encodeRows(counted.Rows), want) {
				r.mismatch("traced op %d: the counting twin's rows differ from the twin's", n)
			}
			simT = simReplay(tr, n, "core.cluster_run", ct.sim, calls.calls, 0)
			tr.attribute("expr.compile_batch", compile)
			tr.attribute("core.cluster", run-compile-simT)
		}
		tr.add("sim.events_per_op", float64(calls.events))
		tr.attribute("sim.serve", simT)
		ct.traced += session
		over := session - decode - run
		tr.attribute("serve.overhead", over)
		tr.add("serve.overhead_us", us(over))
	}
	if untilFull < 0 {
		untilFull = acked // the log never filled within the pass
	}
	ct.untilFull = untilFull
	ct.durable += twin.DurableWrites() - durable0
	start, pages := wal.Region(twin.Device(0).CapacityPages())
	ct.logPages, ct.logRegion = 0, pages
	for lba := start; lba < start+pages; lba++ {
		if twin.Device(0).Mapped(lba) {
			ct.logPages++
		}
	}
	tr.set("wal.pages_per_commit", ratio(float64(ct.logPages), float64(acked)))
	return nil
}

// logProbe serves a whole round of ops on one service, through the
// ladder with a tracer of its own, so the coordinator log fills as it
// does on any service that runs long enough (see NOTES.md). The timed
// services stop short of that; the probe measures what they avoid.
func logProbe(build func() (*serveEnv, error), ops []workload.MixedOp) (*clusterTrace, error) {
	probe := &clusterTrace{tr: newTracer(), r: newReport(), sim: sim.NewServer("probe", sim.GHz(1))}
	if err := probe.service(build, ops); err != nil {
		return nil, err
	}
	if !probe.r.Correct {
		return nil, fmt.Errorf("log probe: %s", strings.Join(probe.r.mismatches, "; "))
	}
	return probe, nil
}

func traceClusterMixed(o options, r *report, build func() (*serveEnv, error), ops []workload.MixedOp) error {
	body := func(i int) []byte { return []byte(ops[i].Body) }
	dur := time.Duration(o.seconds * float64(time.Second))
	tr := newTracer()
	probe, err := logProbe(build, ops)
	if err != nil {
		return err
	}
	tr.set("wal.commits_until_full", float64(probe.untilFull))
	tr.set("fail_ratio", ratio(float64(probe.failed), float64(probe.n)))
	if n := probe.tr.n["core.cluster_update_ms.failed"]; n > 0 {
		tr.set("core.cluster_update_ms.failed", probe.tr.sum["core.cluster_update_ms.failed"]/n)
	}
	r.printf("log probe: one service serving all %d ops: %d updates acknowledged, %d refused with %q; log region %d of %d pages mapped",
		len(ops), probe.acked, probe.failed, walFull, probe.logPages, probe.logRegion)

	ct := &clusterTrace{tr: tr, r: r, sim: sim.NewServer("ladder", sim.GHz(1))}
	var untraced []time.Duration
	var allocs []float64
	t0 := time.Now()
	// Each service's ops run twice, on fresh services: once untraced for
	// the end-to-end times, once through the ladder.
	for len(allocs) == 0 || time.Since(t0) < dur {
		for first := 0; first < len(ops); first += clusterServiceOps {
			env, err := build()
			if err != nil {
				return err
			}
			if len(allocs) == 0 {
				tr.set("core.load_s", env.loadTime.Seconds())
				tr.set("core.clone_ms", ms(env.cloneTime)/float64(env.cfg.workers))
			}
			seg := func(i int) []byte { return body(first + i) }
			u, a, err := untracedReplay(env, clusterServiceOps, time.Duration(math.MaxInt64), seg)
			if cerr := env.close(); err == nil {
				err = cerr
			}
			if err != nil {
				return err
			}
			untraced = append(untraced, u...)
			allocs = append(allocs, a)
			if err := ct.service(build, ops[first:first+clusterServiceOps]); err != nil {
				return err
			}
		}
	}
	tr.set("serve.alloc_kb_per_op", median(allocs)/1024)
	r.Attempted = ct.n
	r.Failed = ct.failed
	rowBytes := float64(ct.rowsUpdated) * float64(workload.LineitemSchema().TupleWidth())
	tr.set("txn.write_amp", ratio(float64(ct.durable)*page.PageSize, rowBytes))
	r.printf("traced updates: %d acknowledged, %d refused over %d services",
		ct.acked, ct.failed, len(allocs))
	return finishTrace(r, tr, o, "serve-cluster-mixed", append(append([]string{}, serveLayers...), clusterLayers...), untraced, ct.traced, ct.n)
}
