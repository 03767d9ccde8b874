package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"time"

	"smartssd/internal/core"
	"smartssd/internal/serve"
)

// tenant is one fixed statement a serve-engine-small session replays.
type tenant struct {
	name string
	body []byte
}

// engineSmallConfig is the serve-engine-small service: the serve test
// fixture's scale, two workers for two clients.
var engineSmallConfig = serveConfig{sf: 0.002, dataSeed: 1, workers: 2}

// mix is a splitmix64 finalizer keyed by (seed, i).
func mix(seed int64, i int) uint64 {
	z := uint64(seed)*0x9E3779B97F4A7C15 + uint64(i+1)*0xBF58476D1CE4E5B9
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// tenantConstants keys the tenants' literal constants. It is fixed, not
// the workload seed: constants move selectivity and placement, so a
// seed-dependent tenant set would change the work per session from
// seed to seed. The seed draws the session order instead.
const tenantConstants = 1

// engineTenants builds the fixed tenant statements, in Zipf rank order
// (rank 0 is the most popular); a tenant repeats its one statement for
// the whole run.
func engineTenants() []tenant {
	seed := int64(tenantConstants)
	pick := func(i, lo, n int) int { return lo + int(mix(seed, i)%uint64(n)) }
	yr := func(i int) int { return pick(i, 1993, 5) }
	q6 := func(i int) string {
		y, d, q := yr(i), pick(i+100, 2, 7), pick(i+200, 20, 10)
		return fmt.Sprintf("l_shipdate >= DATE '%d-01-01' AND l_shipdate < DATE '%d-01-01' AND l_discount >= %d AND l_discount <= %d AND l_quantity < %d",
			y, y+1, d-1, d+1, q*100)
	}
	q6SQL := func(i int) string {
		return "SELECT SUM(l_extendedprice * l_discount) AS revenue, COUNT(*) AS cnt FROM lineitem WHERE " + q6(i)
	}
	q1SQL := func(i int) string {
		return fmt.Sprintf("SELECT l_returnflag, l_linestatus, SUM(l_quantity) AS sum_qty,"+
			" SUM(l_extendedprice) AS sum_base, SUM(l_extendedprice * (100 - l_discount) / 100) AS sum_disc,"+
			" COUNT(*) AS cnt FROM lineitem WHERE l_shipdate <= DATE '1998-%02d-%02d'"+
			" GROUP BY l_returnflag, l_linestatus", pick(i, 6, 4), pick(i+100, 1, 28))
	}
	q14SQL := func(i int) string {
		y, m := pick(i, 1993, 5), pick(i+100, 1, 11)
		return fmt.Sprintf("SELECT SUM(CASE WHEN p_type LIKE 'PROMO%%' THEN l_extendedprice * (100 - l_discount) / 100 ELSE 0 END) AS promo,"+
			" SUM(l_extendedprice * (100 - l_discount) / 100) AS total FROM lineitem, part"+
			" WHERE l_partkey = p_partkey AND l_shipdate >= DATE '%d-%02d-01' AND l_shipdate < DATE '%d-%02d-01'",
			y, m, y, m+1)
	}
	sqlBody := func(name, stmt, mode string) tenant {
		req := serve.Request{Tag: name, SQL: stmt, Mode: mode}
		b, _ := json.Marshal(req) // plain strings always marshal
		return tenant{name: name, body: b}
	}
	aggBody := func(name string, i int, mode string) tenant {
		req := serve.Request{Tag: name, Table: "lineitem", Predicate: q6(i), Mode: mode,
			Aggs: []serve.AggRequest{
				{Kind: "sum", Expr: "l_extendedprice * l_discount", Name: "revenue"},
				{Kind: "count", Name: "cnt"},
			}}
		b, _ := json.Marshal(req)
		return tenant{name: name, body: b}
	}
	projBody := func(name string, i int, mode string) tenant {
		req := serve.Request{Tag: name, Table: "lineitem", Mode: mode,
			Predicate: fmt.Sprintf("l_quantity < %d AND l_discount = %d", pick(i, 2, 3)*100, pick(i+100, 0, 11)),
			Output: []serve.OutputRequest{
				{Name: "orderkey", Expr: "l_orderkey"},
				{Name: "line", Expr: "l_linenumber"},
				{Name: "net", Expr: "l_extendedprice * (100 - l_discount) / 100"},
			}}
		b, _ := json.Marshal(req)
		return tenant{name: name, body: b}
	}
	return []tenant{
		sqlBody("sql-q6-a", q6SQL(0), ""),
		aggBody("json-agg-host", 1, "host"),
		sqlBody("sql-q1", q1SQL(2), ""),
		aggBody("json-agg", 3, ""),
		sqlBody("sql-topk", fmt.Sprintf("SELECT l_orderkey, l_linenumber, l_extendedprice FROM lineitem"+
			" WHERE l_discount >= %d ORDER BY l_extendedprice DESC, l_orderkey, l_linenumber LIMIT 10", pick(4, 3, 5)), ""),
		sqlBody("sql-q14-host", q14SQL(5), "host"),
		projBody("json-proj", 6, ""),
		sqlBody("sql-q6-b", q6SQL(7), ""),
		sqlBody("sql-proj", fmt.Sprintf("SELECT l_orderkey, l_returnflag, l_extendedprice * (100 - l_discount) / 100 AS net"+
			" FROM lineitem WHERE l_quantity < %d AND l_shipdate >= DATE '%d-06-01'", pick(8, 2, 3)*100, yr(8)), ""),
		sqlBody("sql-q1-host", q1SQL(9), "host"),
		projBody("json-proj-host", 10, "host"),
		sqlBody("sql-q14", q14SQL(11), ""),
	}
}

// tenantGate holds each tenant's first answer and checks every repeat
// against it byte for byte.
type tenantGate struct {
	mu    sync.Mutex
	first [][]byte
	r     *report
}

func newTenantGate(n int, r *report) *tenantGate {
	return &tenantGate{first: make([][]byte, n), r: r}
}

func (g *tenantGate) check(t int, name string, body []byte) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.first[t] == nil {
		g.first[t] = body
		return true
	}
	if !bytes.Equal(g.first[t], body) {
		g.r.mismatch("tenant %s: body differs from its first answer:\n%s\nvs first\n%s", name, body, g.first[t])
		return false
	}
	return true
}

// verifyForceHost checks that each tenant's first answer carries the
// rows a ForceHost run of the same spec produces in process, and
// prints a digest of the virtual-time fields.
func (g *tenantGate) verifyForceHost(env *serveEnv, tenants []tenant) error {
	eng, err := env.base.Clone()
	if err != nil {
		return err
	}
	h := sha256.New()
	for i, t := range tenants {
		body := g.first[i]
		if body == nil {
			continue
		}
		q, err := serve.DecodeRequest(env.srv, t.body)
		if err != nil {
			return fmt.Errorf("tenant %s: %w", t.name, err)
		}
		res, err := eng.Run(q.Spec, core.ForceHost)
		if err != nil {
			return fmt.Errorf("tenant %s: force-host run: %w", t.name, err)
		}
		got, err := resultRows(body)
		if err != nil {
			g.r.mismatch("tenant %s: unparsable body: %v", t.name, err)
			continue
		}
		if want := encodeRows(res.Rows); !bytes.Equal(got, want) {
			g.r.mismatch("tenant %s: rows differ from the force-host run:\n%s\nvs\n%s", t.name, got, want)
		}
		var rb struct {
			ElapsedNS int64  `json:"elapsed_ns"`
			Placement string `json:"placement"`
		}
		_ = json.Unmarshal(body, &rb) // parsed above; a missing field digests as zero
		fmt.Fprintf(h, "%s %s %d\n", t.name, rb.Placement, rb.ElapsedNS)
	}
	g.r.printf("virtual-time digest (tenant placement elapsed_ns): %x", h.Sum(nil)[:8])
	return nil
}

// engineDraws is the tenant sequence length; longer runs wrap around.
const engineDraws = 1 << 17

// engineSetups is how many times a run loads the service for setup_s:
// one load takes tens of milliseconds, so the median of many is steady.
const engineSetups = 25

func runEngineSmall(o options, r *report) error {
	tenants := engineTenants()
	env, err := setupRepeated(o, r, engineSetups, func() (*serveEnv, error) { return startServe(engineSmallConfig, 2) }, (*serveEnv).close)
	if err != nil {
		return err
	}
	defer env.close()
	draws := zipfDraws(o.seed, engineDraws, len(tenants), 1.0)
	gate := newTenantGate(len(tenants), r)

	// Warm-up: every tenant twice, so both workers' kernel caches and
	// the gate's first answers are in place before timing.
	for rep := 0; rep < 2; rep++ {
		for i, t := range tenants {
			status, body, err := env.session(t.body)
			if err != nil {
				return fmt.Errorf("warm-up %s: %w", t.name, err)
			}
			if status != http.StatusOK {
				return fmt.Errorf("warm-up %s: status %d: %s", t.name, status, body)
			}
			gate.check(i, t.name, body)
		}
	}

	if o.trace {
		return traceEngineSmall(o, r, env, tenants, draws)
	}
	dur := time.Duration(o.seconds * float64(time.Second))
	res, wall, err := closedLoop(2, dur, func(i int) (bool, bool, error) {
		ti := draws[i%len(draws)]
		status, body, err := env.session(tenants[ti].body)
		if err != nil {
			return true, false, err
		}
		return true, status == http.StatusOK && gate.check(ti, tenants[ti].name, body), nil
	})
	if err != nil {
		return err
	}
	reportLoop(r, res, wall)
	if err := gate.verifyForceHost(env, tenants); err != nil {
		return err
	}
	r.set("live_heap_mb", liveHeapMB(), "MB")
	runtime.KeepAlive(env)
	return nil
}
