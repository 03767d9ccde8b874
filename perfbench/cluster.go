package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"strings"
	"time"

	"smartssd/internal/core"
	"smartssd/internal/serve"
	"smartssd/workload"
)

// clusterMixedConfig is the serve-cluster-mixed service: four devices
// with two copies of every partition. One client, because every
// cluster session serializes on the cluster's mutex.
var clusterMixedConfig = serveConfig{sf: 0.01, dataSeed: 1, workers: 2, withCluster: true, devices: 4, replication: 2}

// The timed run replays MixedOps(seed, clusterRoundOps) in rounds.
// Each round is clusterRoundOps/clusterServiceOps services, each freshly
// loaded and serving the next clusterServiceOps ops: 15 ops, 5 of them
// updates. The seed's coordinator log is never checkpointed and is full
// after 6 or 7 commits at this scale, depending on the seed (see
// NOTES.md); from then on every update is refused. A service is
// replaced well before that, so no timed
// operation fails, and the traced run's log probe (logProbe) measures
// the defect on one service that serves a whole round. Fresh services
// also keep the work per service, the heap it leaves behind (the
// kernel caches grow with every new constant) and so every metric the
// same on a fast machine as on a slow one.
const (
	clusterServiceOps = 15
	clusterRoundOps   = 6 * clusterServiceOps
)

// walFull is the error text of the seed's unbounded coordinator log
// (see NOTES.md). An update refused for it counts as failed; any other
// failure fails the gate.
const walFull = "log region full"

// mixedOutcome is one answered MixedOps session, kept for the gate.
type mixedOutcome struct {
	op     int
	status int
	body   []byte
}

// clusterGate checks serve-cluster-mixed answers after each service's
// ops. The engine answers are kept across services; the update tallies
// are per service, because every service starts from freshly loaded
// data.
type clusterGate struct {
	env     *serveEnv    // the pass's service
	eng     *core.Engine // a clone of an unmodified base engine
	ops     []workload.MixedOp
	want    map[string][2]int64 // read predicate -> cnt, sum_price
	r       *report
	acked   int // per service
	refused int // updates refused with walFull, per service
	deltaUp int64
}

func newClusterGate(env *serveEnv, ops []workload.MixedOp, r *report) (*clusterGate, error) {
	eng, err := env.base.Clone()
	if err != nil {
		return nil, err
	}
	return &clusterGate{env: env, eng: eng, ops: ops, want: make(map[string][2]int64), r: r}, nil
}

// startService points the gate at a freshly loaded service.
func (g *clusterGate) startService(env *serveEnv) {
	g.env = env
	g.acked, g.refused, g.deltaUp = 0, 0, 0
}

// engineAnswer runs a cluster read's request on the engine (ForceHost)
// and returns its cnt and sum_price. Updates only touch l_discount, so
// these two columns never change under the workload.
func (g *clusterGate) engineAnswer(body string) ([2]int64, error) {
	var req serve.Request
	if err := json.Unmarshal([]byte(body), &req); err != nil {
		return [2]int64{}, err
	}
	if w, ok := g.want[req.Predicate]; ok {
		return w, nil
	}
	req.Target = "engine"
	data, _ := json.Marshal(req)
	q, err := serve.DecodeRequest(g.env.srv, data)
	if err != nil {
		return [2]int64{}, err
	}
	res, err := g.eng.Run(q.Spec, core.ForceHost)
	if err != nil {
		return [2]int64{}, err
	}
	var w [2]int64
	for i, a := range q.Aggs {
		switch a.Name {
		case "cnt":
			w[0] = res.Rows[0][i].Int
		case "sum_price":
			w[1] = res.Rows[0][i].Int
		}
	}
	g.want[req.Predicate] = w
	return w, nil
}

type resultBody struct {
	Columns   []string  `json:"columns"`
	Rows      [][]int64 `json:"rows"`
	ElapsedNS int64     `json:"elapsed_ns"`
	Error     string    `json:"error"`
}

// check verifies one outcome and reports whether it counts as a
// success. A read must match the engine; an acknowledged update adds
// delta x rows_updated to the expected SUM(l_discount).
func (g *clusterGate) check(o mixedOutcome) (bool, error) {
	op := g.ops[o.op%len(g.ops)]
	var rb resultBody
	if err := json.Unmarshal(o.body, &rb); err != nil {
		g.r.mismatch("op %d: unparsable body %q: %v", o.op, o.body, err)
		return false, nil
	}
	if op.Update {
		if o.status != http.StatusOK {
			if strings.Contains(rb.Error, walFull) {
				g.refused++
				return false, nil
			}
			g.r.mismatch("op %d: update failed with an unexpected error: %d %s", o.op, o.status, o.body)
			return false, nil
		}
		var delta int64
		i := strings.Index(op.Body, "l_discount + ")
		if i < 0 {
			return false, fmt.Errorf("op %d: no delta in update body", o.op)
		}
		if _, err := fmt.Sscanf(op.Body[i+len("l_discount + "):], "%d", &delta); err != nil {
			return false, fmt.Errorf("op %d: update delta: %w", o.op, err)
		}
		if len(rb.Rows) != 1 || len(rb.Rows[0]) != 1 {
			g.r.mismatch("op %d: acknowledged update without rows_updated: %s", o.op, o.body)
			return false, nil
		}
		g.acked++
		g.deltaUp += delta * rb.Rows[0][0]
		return true, nil
	}
	if o.status != http.StatusOK {
		g.r.mismatch("op %d: read failed: %d %s", o.op, o.status, o.body)
		return false, nil
	}
	want, err := g.engineAnswer(op.Body)
	if err != nil {
		return false, err
	}
	if len(rb.Rows) != 1 || len(rb.Rows[0]) != len(rb.Columns) {
		g.r.mismatch("op %d: read answered without one row: %s", o.op, o.body)
		return false, nil
	}
	var got [2]int64
	for i, c := range rb.Columns {
		switch c {
		case "cnt":
			got[0] = rb.Rows[0][i]
		case "sum_price":
			got[1] = rb.Rows[0][i]
		}
	}
	if got != want {
		g.r.mismatch("op %d: cluster read cnt,sum_price = %v, engine says %v", o.op, got, want)
		return false, nil
	}
	return true, nil
}

const sumDiscountSQL = `SELECT SUM(l_discount) AS d FROM lineitem`

// finalDiscount checks SUM(l_discount) on the cluster against its
// initial value plus the acknowledged updates.
func (g *clusterGate) finalDiscount() error {
	q, err := serve.DecodeRequest(g.env.srv, []byte(`{"sql":"`+sumDiscountSQL+`"}`))
	if err != nil {
		return err
	}
	res, err := g.eng.Run(q.Spec, core.ForceHost)
	if err != nil {
		return err
	}
	initial := res.Rows[0][0].Int
	status, body, err := g.env.session([]byte(`{"tag":"final","target":"cluster","sql":"` + sumDiscountSQL + `"}`))
	if err != nil {
		return err
	}
	var rb resultBody
	if status != http.StatusOK || json.Unmarshal(body, &rb) != nil || len(rb.Rows) != 1 {
		g.r.mismatch("final SUM(l_discount) session: %d %s", status, body)
		return nil
	}
	if got, want := rb.Rows[0][0], initial+g.deltaUp; got != want {
		g.r.mismatch("final SUM(l_discount) = %d, want initial %d + acknowledged updates %d = %d",
			got, initial, g.deltaUp, want)
	}
	return nil
}

// clusterSession is one timed session of a service's ops.
type clusterSession struct {
	res     opResult
	outcome mixedOutcome
}

// serveOps replays ops[first:first+n] serially, with one client, on env
// and checks every answer. It returns the measured sessions, their wall
// time (the gate's checks are not timed) and a digest of each op's
// status and elapsed_ns.
func serveOps(env *serveEnv, ops []workload.MixedOp, first, n int, gate *clusterGate) ([]opResult, time.Duration, []byte, error) {
	sessions := make([]clusterSession, 0, n)
	t0 := time.Now()
	for i := first; i < first+n; i++ {
		st := time.Since(t0)
		status, body, err := env.session([]byte(ops[i].Body))
		if err != nil {
			return nil, 0, nil, fmt.Errorf("op %d: %w", i, err)
		}
		sessions = append(sessions, clusterSession{
			res:     opResult{idx: i, read: !ops[i].Update, start: st, lat: time.Since(t0) - st},
			outcome: mixedOutcome{op: i, status: status, body: body},
		})
	}
	wall := time.Since(t0)

	gate.startService(env)
	res := make([]opResult, len(sessions))
	h := sha256.New()
	for i, s := range sessions {
		good, err := gate.check(s.outcome)
		if err != nil {
			return nil, 0, nil, err
		}
		res[i] = s.res
		res[i].ok = good
		var rb resultBody
		_ = json.Unmarshal(s.outcome.body, &rb) // checked above
		fmt.Fprintf(h, "%d %d %d\n", s.outcome.op, s.outcome.status, rb.ElapsedNS)
	}
	if err := gate.finalDiscount(); err != nil {
		return nil, 0, nil, err
	}
	return res, wall, h.Sum(nil), nil
}

func runClusterMixed(o options, r *report) error {
	ops := workload.MixedOps(o.seed, clusterRoundOps)
	build := func() (*serveEnv, error) { return startServe(clusterMixedConfig, 1) }
	if o.trace {
		return traceClusterMixed(o, r, build, ops)
	}

	// Every service is freshly loaded, so each load is a set-up sample.
	var setups, heaps []float64
	// Per round: the ok-op rate, the read quantiles and the wall time.
	var rates, walls, p50s, p99s []float64
	reads := 0
	var digest []byte
	same := 0 // rounds whose digest equals the first round's
	// Warm up on the round's first service: the first ops a process
	// serves run slower than the same ops later.
	env, err := build()
	if err != nil {
		return err
	}
	gate, err := newClusterGate(env, ops, r)
	if err != nil {
		env.close()
		return err
	}
	_, _, _, err = serveOps(env, ops, 0, clusterServiceOps, gate)
	if cerr := env.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}

	dur := time.Duration(o.seconds * float64(time.Second))
	t0 := time.Now()
	for len(walls) == 0 || time.Since(t0) < dur {
		var round []opResult
		var wall time.Duration
		h := sha256.New()
		for first := 0; first < len(ops); first += clusterServiceOps {
			// Collect the previous service's garbage, so that its
			// collection is not charged to this set-up.
			runtime.GC()
			var env *serveEnv
			var err error
			setup := timed(func() { env, err = build() })
			if err != nil {
				return err
			}
			setups = append(setups, setup.Seconds())
			// Collect the load's garbage before the timed ops, so a
			// collection the load left due does not land in them.
			runtime.GC()
			res, w, d, err := serveOps(env, ops, first, clusterServiceOps, gate)
			if err != nil {
				env.close()
				return err
			}
			heaps = append(heaps, liveHeapMB())
			if err := env.close(); err != nil {
				return err
			}
			round = append(round, res...)
			wall += w
			h.Write(d)
		}
		roundReads, okOps := readLatencies(round, wall)
		p50, p99 := quantile(roundReads, 0.50), quantile(roundReads, 0.99)
		r.printf("round %d: %d sessions in %.3fs, read p50 %.2f ms, p99 %.2f ms",
			len(walls)+1, len(round), wall.Seconds(), p50, p99)
		reads += len(roundReads)
		p50s = append(p50s, p50)
		p99s = append(p99s, p99)
		rates = append(rates, float64(okOps)/wall.Seconds())
		walls = append(walls, wall.Seconds())
		r.Attempted += len(round)
		r.Failed += len(round) - okOps
		d := h.Sum(nil)[:8]
		if digest == nil {
			digest = d
		}
		if bytes.Equal(d, digest) {
			same++
		}
	}
	r.set("setup_s", median(setups), "s")
	r.set("ok_ops_per_s", median(rates), "1/s")
	// A round's read quantiles, like its rate and wall time, are taken
	// per round and the run reports their median: a pooled p99 over the
	// run's few hundred reads was set by the one or two reads that met
	// a pause of the machine.
	r.set("read_p50_ms", median(p50s), "ms")
	r.set("read_p99_ms", median(p99s), "ms")
	r.set("suite_pass_s", median(walls), "s")
	r.set("live_heap_mb", median(heaps), "MB")
	r.printf("loop: %d rounds of %d sessions on %d services each (%d reads, %d failed) in %.3fs; median set-up %.3fs",
		len(walls), len(ops), len(ops)/clusterServiceOps, reads, r.Failed, time.Since(t0).Seconds(), median(setups))
	r.printf("virtual-time digest (each op's status and elapsed_ns): %x, the same in %d of %d rounds",
		digest, same, len(walls))
	return nil
}
