package lint_test

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"kstreams/internal/lint"
)

// --- wallclock ---

func TestWallClockFlagsTaintedClosure(t *testing.T) {
	// stamp reads the wall clock directly; Outer reaches it only through
	// the helper, and Deep only through a two-hop chain. All three are
	// tainted, each with its own witness path.
	diags := lintFixture(t, lint.Config{}, "lintfixture/wallclock_tp", `
package fixture

import "time"

func Outer() time.Time { return stamp() }

func Deep() time.Time { return stamp2() }

func stamp() time.Time { return time.Now() }

func stamp2() time.Time { return stamp() }
`, "wallclock")
	wantFindings(t, diags, "wallclock", "wallclock", "wallclock", "wallclock")
	// Findings are position-sorted: Outer (line 6), Deep (8), stamp (10),
	// stamp2 (12). Outer's witness must spell out the chain into stamp.
	if !strings.Contains(diags[0].Message, "Outer") ||
		!strings.Contains(diags[0].Message, "stamp") ||
		!strings.Contains(diags[0].Message, "time.Now") {
		t.Fatalf("Outer's finding should carry the witness chain to time.Now: %s", diags[0].Message)
	}
	// Deep's chain has two hops: Deep → stamp2 → stamp → time.Now.
	if !strings.Contains(diags[1].Message, "stamp2") || !strings.Contains(diags[1].Message, "time.Now") {
		t.Fatalf("Deep's finding should walk through stamp2: %s", diags[1].Message)
	}
}

func TestWallClockFlagsPackageLevelFuncLits(t *testing.T) {
	// A func literal bound at package level has no declaration of its
	// own; its closure is checked like a declared function's.
	diags := lintFixture(t, lint.Config{}, "lintfixture/wallclock_funclit", `
package fixture

import "time"

var settle = func() { time.Sleep(time.Millisecond) }

var stamp = func() time.Time { return time.Now() }
`, "wallclock")
	wantFindings(t, diags, "wallclock", "wallclock")
	if !strings.Contains(diags[0].Message, "settle → time.Sleep") ||
		!strings.Contains(diags[1].Message, "stamp → time.Now") {
		t.Fatalf("findings should name the literal's var and the time call:\n%s", render(diags))
	}
}

func TestWallClockFlagsTickerHelper(t *testing.T) {
	diags := lintFixture(t, lint.Config{}, "lintfixture/wallclock_ticker", `
package fixture

import "time"

func RunLoop(stop chan struct{}) {
	t := newTicker()
	defer t.Stop()
	select {
	case <-stop:
	case <-t.C:
	}
}

func newTicker() *time.Ticker { return time.NewTicker(time.Millisecond) }
`, "wallclock")
	wantFindings(t, diags, "wallclock", "wallclock")
	if !strings.Contains(diags[0].Message, "time.NewTicker") {
		t.Fatalf("witness should end at time.NewTicker: %s", diags[0].Message)
	}
}

func TestWallClockAcceptsSeams(t *testing.T) {
	// Time through retry.Clock (injected or the package-level Wall) and
	// through obs instruments is the sanctioned pattern: both seams block
	// the taint walk, even though their implementations read the wall
	// clock internally.
	diags := lintFixture(t, lint.Config{}, "lintfixture/wallclock_ok", `
package fixture

import (
	"time"

	"kstreams/internal/obs"
	"kstreams/internal/retry"
)

func Pace(c retry.Clock, d time.Duration) { c.Sleep(d) }

func PaceWall(d time.Duration) { retry.Wall.Sleep(d) }

func Observe(h *obs.Histogram, start time.Time) { h.ObserveSince(start) }

func Deadline(c retry.Clock, d time.Duration) time.Time { return c.Now().Add(d) }
`, "wallclock")
	wantFindings(t, diags)
}

func TestWallClockIgnoresPureDurationMath(t *testing.T) {
	// Duration arithmetic and formatting never touch the clock; only the
	// reading/waiting functions are wall taints.
	diags := lintFixture(t, lint.Config{}, "lintfixture/wallclock_pure", `
package fixture

import "time"

func Budget(n int) time.Duration { return time.Duration(n) * time.Millisecond }

func Render(d time.Duration) string { return d.Round(time.Millisecond).String() }
`, "wallclock")
	wantFindings(t, diags)
}

func TestWallClockThroughInterfaceDispatch(t *testing.T) {
	// The production function lives in a package that never imports time;
	// the only path to the wall clock runs through an interface method
	// whose implementation is in a different package. The ImplCall edges
	// make the taint visible anyway.
	ldr := testLoader(t)
	api, err := ldr.LoadFixture("lintfixture/iface_api", map[string]string{"fixture.go": `
package fixture

type Ticker interface {
	Tick()
}

func Drive(t Ticker) { t.Tick() }
`})
	if err != nil {
		t.Fatal(err)
	}
	impl, err := ldr.LoadFixture("lintfixture/iface_impl", map[string]string{"fixture.go": `
package fixture

import "time"

type WallTicker struct{}

func (WallTicker) Tick() { time.Sleep(time.Millisecond) }
`})
	if err != nil {
		t.Fatal(err)
	}
	mod := &lint.Module{Root: ldr.Root(), Path: ldr.ModulePath(), Fset: ldr.Fset(), Pkgs: []*lint.Package{api, impl}}
	diags := lint.RunAnalyzers(mod, lint.Config{}, pickAnalyzers(ldr, []string{"wallclock"}))
	// Two findings, file-sorted: Drive (via dispatch) and the impl itself.
	wantFindings(t, diags, "wallclock", "wallclock")
	if !strings.Contains(diags[0].Pos.Filename, "iface_api") {
		t.Fatalf("the interface caller should be flagged: %s", render(diags))
	}
	if !strings.Contains(diags[0].Message, "Drive") ||
		!strings.Contains(diags[0].Message, "WallTicker.Tick") ||
		!strings.Contains(diags[0].Message, "time.Sleep") {
		t.Fatalf("witness should cross the dispatch into the implementing package: %s", diags[0].Message)
	}
}

// --- lockorder ---

func TestLockOrderSeededCycle(t *testing.T) {
	// The canonical two-mutex deadlock: AB holds A.mu while (through a
	// helper) taking B.mu, BA nests them the other way round. One finding,
	// with the full witness for both edges of the cycle.
	diags := lintFixture(t, lint.Config{}, "lintfixture/lockorder_tp", `
package fixture

import "sync"

type A struct{ mu sync.Mutex }

type B struct{ mu sync.Mutex }

func AB(a *A, b *B) {
	a.mu.Lock()
	defer a.mu.Unlock()
	lockB(b)
}

func lockB(b *B) {
	b.mu.Lock()
	defer b.mu.Unlock()
}

func BA(a *A, b *B) {
	b.mu.Lock()
	defer b.mu.Unlock()
	a.mu.Lock()
	a.mu.Unlock()
}
`, "lockorder")
	wantFindings(t, diags, "lockorder")
	msg := diags[0].Message
	if !strings.Contains(msg, "potential deadlock: lock-order cycle fixture.A.mu → fixture.B.mu → fixture.A.mu") {
		t.Fatalf("cycle rendering: %s", msg)
	}
	// The A→B edge is witnessed through the call chain AB → lockB; the
	// B→A edge directly inside BA. Both carry the acquire position.
	if !strings.Contains(msg, "AB → lintfixture/lockorder_tp.lockB (Lock at ") {
		t.Fatalf("A→B witness should walk through the helper: %s", msg)
	}
	if !strings.Contains(msg, ".BA (Lock at ") {
		t.Fatalf("B→A witness should name BA and the Lock site: %s", msg)
	}
}

func TestLockOrderCrossFunctionClosureCycle(t *testing.T) {
	// Neither function nests the second lock syntactically: each acquires
	// one class and calls a helper whose closure takes the other. Only the
	// may-acquire fixpoint over the call graph sees the cycle.
	diags := lintFixture(t, lint.Config{}, "lintfixture/lockorder_deep", `
package fixture

import "sync"

type Reg struct{ mu sync.Mutex }

type Store struct{ mu sync.Mutex }

func (r *Reg) Update(s *Store) {
	r.mu.Lock()
	defer r.mu.Unlock()
	touchStore(s)
}

func touchStore(s *Store) { viaStore(s) }

func viaStore(s *Store) {
	s.mu.Lock()
	defer s.mu.Unlock()
}

func (s *Store) Flush(r *Reg) {
	s.mu.Lock()
	defer s.mu.Unlock()
	touchReg(r)
}

func touchReg(r *Reg) {
	r.mu.Lock()
	defer r.mu.Unlock()
}
`, "lockorder")
	wantFindings(t, diags, "lockorder")
	msg := diags[0].Message
	if !strings.Contains(msg, "fixture.Reg.mu") || !strings.Contains(msg, "fixture.Store.mu") {
		t.Fatalf("cycle should span both classes: %s", msg)
	}
	if !strings.Contains(msg, "touchStore → lintfixture/lockorder_deep.viaStore") {
		t.Fatalf("witness should spell the full two-hop chain: %s", msg)
	}
}

func TestLockOrderConsistentOrderIsClean(t *testing.T) {
	// Everyone takes A before B: a populated order graph with no cycle.
	diags := lintFixture(t, lint.Config{}, "lintfixture/lockorder_ok", `
package fixture

import "sync"

type A struct{ mu sync.Mutex }

type B struct{ mu sync.Mutex }

func One(a *A, b *B) {
	a.mu.Lock()
	b.mu.Lock()
	b.mu.Unlock()
	a.mu.Unlock()
}

func Two(a *A, b *B) {
	a.mu.Lock()
	defer a.mu.Unlock()
	b.mu.Lock()
	defer b.mu.Unlock()
}
`, "lockorder")
	wantFindings(t, diags)
}

func TestLockOrderInstanceAndSequentialNearMisses(t *testing.T) {
	// Shift nests two instances of the same class — an ordering question
	// about instances, which the class abstraction cannot decide, so the
	// self-edge is skipped. Seq takes B then A but releases B first, so
	// there is no held-across pair and no B→A edge despite One's A→B.
	diags := lintFixture(t, lint.Config{}, "lintfixture/lockorder_near", `
package fixture

import "sync"

type A struct{ mu sync.Mutex }

type B struct{ mu sync.Mutex }

func One(a *A, b *B) {
	a.mu.Lock()
	defer a.mu.Unlock()
	b.mu.Lock()
	b.mu.Unlock()
}

func Shift(x, y *A) {
	x.mu.Lock()
	y.mu.Lock()
	y.mu.Unlock()
	x.mu.Unlock()
}

func Seq(a *A, b *B) {
	b.mu.Lock()
	b.mu.Unlock()
	a.mu.Lock()
	a.mu.Unlock()
}
`, "lockorder")
	wantFindings(t, diags)
}

// --- lockbalance ---

func TestLockBalanceFlagsLeakedLocks(t *testing.T) {
	diags := lintFixture(t, lint.Config{}, "lintfixture/lockbalance_tp", `
package fixture

import "sync"

type S struct{ mu sync.Mutex }

func (s *S) Leak() {
	s.mu.Lock()
}

func (s *S) EarlyReturn(cond bool) {
	s.mu.Lock()
	if cond {
		return
	}
	s.mu.Unlock()
}
`, "lockbalance")
	wantFindings(t, diags, "lockbalance", "lockbalance")
	if !strings.Contains(diags[0].Message, "s.mu is still held at function exit") {
		t.Fatalf("message should name the leaked lock: %s", diags[0].Message)
	}
	if diags[1].Pos.Line != 15 {
		t.Fatalf("EarlyReturn leak should be reported at the return (line 15), got line %d\n%s",
			diags[1].Pos.Line, render(diags))
	}
}

func TestLockBalanceNearMisses(t *testing.T) {
	// defer covers every later exit; a branch that unlocks before its
	// return is balanced; a return placed before the Lock is trivially
	// clean; a terminating panic branch never exits normally.
	diags := lintFixture(t, lint.Config{}, "lintfixture/lockbalance_ok", `
package fixture

import "sync"

type S struct{ mu sync.Mutex }

func (s *S) DeferOK(cond bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if cond {
		return
	}
}

func (s *S) BranchOK(cond bool) {
	s.mu.Lock()
	if cond {
		s.mu.Unlock()
		return
	}
	s.mu.Unlock()
}

func (s *S) GuardOK(cond bool) {
	if cond {
		return
	}
	s.mu.Lock()
	s.mu.Unlock()
}

func (s *S) PanicOK(cond bool) {
	s.mu.Lock()
	if cond {
		panic("invariant")
	}
	s.mu.Unlock()
}
`, "lockbalance")
	wantFindings(t, diags)
}

func TestLockBalanceJoinsSelectArms(t *testing.T) {
	// Select arms join like switch arms: when every arm unlocks, the lock
	// is released after the select, so neither the exit nor the send
	// after it holds s.mu.
	diags := lintFixture(t, lint.Config{}, "lintfixture/lockbalance_select_ok", `
package fixture

import "sync"

type S struct{ mu sync.Mutex }

func (s *S) Wait(a, b, out chan int) {
	s.mu.Lock()
	select {
	case <-a:
		s.mu.Unlock()
	case <-b:
		s.mu.Unlock()
	}
	out <- 1
}
`, "lockbalance", "lockheld-rpc")
	wantFindings(t, diags)
}

func TestLockBalanceFlagsSelectArmKeepingLock(t *testing.T) {
	// One arm keeps the lock: a must-held join drops it, but the arm's own
	// path still leaves the function holding s.mu.
	diags := lintFixture(t, lint.Config{}, "lintfixture/lockbalance_select_tp", `
package fixture

import "sync"

type S struct{ mu sync.Mutex }

func (s *S) Wait(a, b chan int) {
	s.mu.Lock()
	select {
	case <-a:
		s.mu.Unlock()
	case <-b:
		return
	}
}
`, "lockbalance")
	wantFindings(t, diags, "lockbalance")
	if diags[0].Pos.Line != 14 {
		t.Fatalf("leak should be reported at the arm's return (line 14), got line %d\n%s",
			diags[0].Pos.Line, render(diags))
	}
}

// --- txnproto ---

func TestTxnProtoFlagsOutOfOrderSteps(t *testing.T) {
	diags := lintFixture(t, lint.Config{}, "lintfixture/txnproto_tp", `
package fixture

import (
	"kstreams/internal/client"
	"kstreams/internal/protocol"
	"kstreams/internal/transport"
)

func DoubleBegin(p *client.Producer) {
	_ = p.BeginTxn()
	_ = p.BeginTxn()
}

func OffsetsAfterCommit(p *client.Producer, offs []protocol.OffsetEntry) {
	_ = p.BeginTxn()
	_ = p.CommitTxn()
	_ = p.SendOffsetsToTxn("g", offs, "m", 1)
}

func CommitFresh(net *transport.Network) {
	p, err := client.NewProducer(net, client.ProducerConfig{})
	if err != nil {
		return
	}
	_ = p.CommitTxn()
}
`, "txnproto")
	wantFindings(t, diags, "txnproto", "txnproto", "txnproto")
	if !strings.Contains(diags[0].Message, "step begin: BeginTxn on p while a transaction is already open") {
		t.Fatalf("double begin: %s", diags[0].Message)
	}
	if !strings.Contains(diags[1].Message, "step offsets: SendOffsetsToTxn on p outside an open transaction") {
		t.Fatalf("offsets after commit: %s", diags[1].Message)
	}
	if !strings.Contains(diags[2].Message, "step commit: CommitTxn on p with no open transaction") {
		t.Fatalf("commit on fresh producer: %s", diags[2].Message)
	}
}

func TestTxnProtoFlagsLeakedOpenTxn(t *testing.T) {
	// An error return between BeginTxn and CommitTxn leaves the
	// transaction open; nothing in this fixture module ever aborts, so the
	// escape check fires at the leaking return.
	diags := lintFixture(t, lint.Config{}, "lintfixture/txnproto_leak", `
package fixture

import "kstreams/internal/client"

func work() error { return nil }

func Leak(p *client.Producer) error {
	if err := p.BeginTxn(); err != nil {
		return err
	}
	if err := work(); err != nil {
		return err
	}
	return p.CommitTxn()
}
`, "txnproto")
	wantFindings(t, diags, "txnproto")
	if !strings.Contains(diags[0].Message, "step abort: error path returns with the transaction on p still open") {
		t.Fatalf("leak message: %s", diags[0].Message)
	}
	if diags[0].Pos.Line != 13 {
		t.Fatalf("leak should be reported at the escaping return (line 13), got %d\n%s",
			diags[0].Pos.Line, render(diags))
	}
}

func TestTxnProtoAcceptsProtocolShapes(t *testing.T) {
	// The idiomatic commit cycle: abort on the offsets and commit failure
	// paths (a failed CommitTxn leaves the txn open, so AbortTxn there is
	// legal), and a begin failure opens nothing.
	diags := lintFixture(t, lint.Config{}, "lintfixture/txnproto_ok", `
package fixture

import (
	"kstreams/internal/client"
	"kstreams/internal/protocol"
)

func Cycle(p *client.Producer, offs []protocol.OffsetEntry) error {
	if err := p.BeginTxn(); err != nil {
		return err
	}
	if err := p.SendOffsetsToTxn("g", offs, "m", 1); err != nil {
		_ = p.AbortTxn()
		return err
	}
	if err := p.CommitTxn(); err != nil {
		_ = p.AbortTxn()
		return err
	}
	return nil
}
`, "txnproto")
	wantFindings(t, diags)
}

func TestTxnProtoAcceptsDeferredAbortAndCallerCleanup(t *testing.T) {
	// DeferAbort covers its error exits with a deferred AbortTxn; attempt
	// returns with the txn open but its only caller aborts on failure, so
	// abort is reachable and neither function is flagged.
	diags := lintFixture(t, lint.Config{}, "lintfixture/txnproto_defer", `
package fixture

import "kstreams/internal/client"

func work() error { return nil }

func DeferAbort(p *client.Producer) error {
	if err := p.BeginTxn(); err != nil {
		return err
	}
	defer p.AbortTxn() //kslint:ignore errdrop abort on the way out is best-effort
	if err := work(); err != nil {
		return err
	}
	return p.CommitTxn()
}

func attempt(p *client.Producer) error {
	if err := p.BeginTxn(); err != nil {
		return err
	}
	return work()
}

func Drive(p *client.Producer) error {
	if err := attempt(p); err != nil {
		_ = p.AbortTxn()
		return err
	}
	return p.CommitTxn()
}
`, "txnproto")
	wantFindings(t, diags)
}

// --- output stability, JSON, file-ignore ---

// TestDeterministicOutput runs the full rule set repeatedly over one
// fixture module that triggers the map-heavy analyses (lock-order SCCs,
// txn states, call-graph walks) and requires byte-identical renderings —
// the property `make lint` diffs in CI depend on.
func TestDeterministicOutput(t *testing.T) {
	ldr := testLoader(t)
	pkg, err := ldr.LoadFixture("lintfixture/determinism", map[string]string{"fixture.go": `
package fixture

import (
	"sync"
	"time"

	"kstreams/internal/client"
)

type A struct{ mu sync.Mutex }

type B struct{ mu sync.Mutex }

func AB(a *A, b *B) {
	a.mu.Lock()
	defer a.mu.Unlock()
	b.mu.Lock()
	b.mu.Unlock()
}

func BA(a *A, b *B) {
	b.mu.Lock()
	defer b.mu.Unlock()
	a.mu.Lock()
	a.mu.Unlock()
}

func Stamp() time.Time { return helper() }

func helper() time.Time { return time.Now() }

func Double(p *client.Producer) {
	_ = p.BeginTxn()
	_ = p.BeginTxn()
}

func Leak(s *A) {
	s.mu.Lock()
}
`})
	if err != nil {
		t.Fatal(err)
	}
	var first string
	for i := 0; i < 4; i++ {
		// Fresh analyzer instances each round: the stateful rules
		// (lockorder summaries, txnproto caches) must not leak state, and
		// map iteration anywhere in the pipeline must not leak order.
		diags := lint.LintPackage(ldr, pkg, lint.Config{}, pickAnalyzers(ldr, nil))
		if len(diags) == 0 {
			t.Fatal("determinism fixture should produce findings")
		}
		out := render(diags)
		if i == 0 {
			first = out
			continue
		}
		if out != first {
			t.Fatalf("run %d differs from run 0:\n--- run 0 ---\n%s--- run %d ---\n%s", i, first, i, out)
		}
	}
}

// TestRunByteIdentical runs the real lint.Run entry point twice over the
// whole module — with an empty config, so the allowlisted packages
// produce genuine findings — and requires the two outputs to be
// byte-for-byte equal, including every witness path rendered from the
// call graph.
func TestRunByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("two whole-module type-checks are slow")
	}
	run := func() string {
		diags, err := lint.Run("../..", lint.Config{}, nil)
		if err != nil {
			t.Fatalf("run: %v", err)
		}
		if len(diags) == 0 {
			t.Fatal("an empty config over the module should surface the allowlisted findings")
		}
		return render(diags)
	}
	first, second := run(), run()
	if first != second {
		t.Fatalf("lint.Run output is not stable across runs:\n--- first ---\n%s--- second ---\n%s", first, second)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	diags := lintFixture(t, lint.Config{}, "lintfixture/json_rt", `
package fixture

import "math/rand"

func draw() int { return rand.Intn(3) }
`, "norawrand")
	wantFindings(t, diags, "norawrand")

	data, err := lint.ToJSON(diags)
	if err != nil {
		t.Fatal(err)
	}
	var decoded []lint.JSONDiagnostic
	if err := json.Unmarshal(data, &decoded); err != nil {
		t.Fatalf("kslint -json output must be parseable: %v", err)
	}
	want := make([]lint.JSONDiagnostic, 0, len(diags))
	for _, d := range diags {
		want = append(want, lint.JSONDiagnostic{
			File: d.Pos.Filename, Line: d.Pos.Line, Col: d.Pos.Column,
			Rule: d.Rule, Message: d.Message,
		})
	}
	if !reflect.DeepEqual(decoded, want) {
		t.Fatalf("round-trip mismatch:\ngot  %#v\nwant %#v", decoded, want)
	}

	// No findings renders as an empty array, not null.
	empty, err := lint.ToJSON(nil)
	if err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(string(empty)) != "[]" {
		t.Fatalf("empty diagnostics must render as []: %q", empty)
	}
}

func TestFileIgnoreScopesByRule(t *testing.T) {
	// file-ignore suppresses the named rule everywhere in the file but
	// leaves other rules running: the unseeded draws are forgiven, the
	// tainted closures are not.
	diags := lintFixture(t, lint.Config{}, "lintfixture/fileignore", `
package fixture

//kslint:file-ignore norawrand this file is a jitter shim by design

import (
	"math/rand"
	"time"
)

func a() { time.Sleep(time.Duration(rand.Intn(3))) }

func b() { time.Sleep(time.Duration(rand.Intn(3))) }
`, "norawrand", "wallclock")
	wantFindings(t, diags, "wallclock", "wallclock")
}

func TestFileIgnoreAll(t *testing.T) {
	diags := lintFixture(t, lint.Config{}, "lintfixture/fileignore_all", `
package fixture

//kslint:file-ignore all generated demo file

import (
	"math/rand"
	"time"
)

func a() { time.Sleep(time.Duration(rand.Intn(3))) }
`, "norawrand", "wallclock")
	wantFindings(t, diags)
}
