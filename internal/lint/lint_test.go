package lint_test

import (
	"strings"
	"sync"
	"testing"

	"kstreams/internal/lint"
)

// The loader is shared across tests: it memoizes type-checked module
// packages (transport, client, obs, ...) that every fixture imports, and
// the stdlib source importer is the expensive part of a cold load.
var (
	loaderOnce sync.Once
	sharedLdr  *lint.Loader
	loaderErr  error
)

func testLoader(t *testing.T) *lint.Loader {
	t.Helper()
	loaderOnce.Do(func() { sharedLdr, loaderErr = lint.NewLoader("../..") })
	if loaderErr != nil {
		t.Fatalf("loader: %v", loaderErr)
	}
	return sharedLdr
}

// lintFixture type-checks src as a single-file package at dirRel and runs
// the named rules (all rules when none given) with cfg. Every fixture is
// also checked against the corpus golden (golden_test.go).
func lintFixture(t *testing.T, cfg lint.Config, dirRel, src string, rules ...string) []lint.Diagnostic {
	t.Helper()
	ldr := testLoader(t)
	pkg, err := ldr.LoadFixture(dirRel, map[string]string{"fixture.go": src})
	if err != nil {
		t.Fatalf("fixture %s: %v", dirRel, err)
	}
	checkGolden(t, ldr, pkg, dirRel, rules)
	return lint.LintPackage(ldr, pkg, cfg, pickAnalyzers(ldr, rules))
}

func pickAnalyzers(ldr *lint.Loader, rules []string) []lint.Analyzer {
	all := lint.Analyzers(ldr.ModulePath())
	if len(rules) == 0 {
		return all
	}
	keep := make(map[string]bool, len(rules))
	for _, r := range rules {
		keep[r] = true
	}
	var sel []lint.Analyzer
	for _, a := range all {
		if keep[a.Name()] {
			sel = append(sel, a)
		}
	}
	return sel
}

// wantFindings asserts the diagnostics' rules match want exactly (order
// follows the stable sort).
func wantFindings(t *testing.T, diags []lint.Diagnostic, want ...string) {
	t.Helper()
	var got []string
	for _, d := range diags {
		got = append(got, d.Rule)
	}
	if len(got) != len(want) {
		t.Fatalf("got %d findings %v, want %v\n%s", len(got), got, want, render(diags))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("finding %d rule = %s, want %s\n%s", i, got[i], want[i], render(diags))
		}
	}
}

func render(diags []lint.Diagnostic) string {
	var b strings.Builder
	for _, d := range diags {
		b.WriteString("  " + d.String() + "\n")
	}
	return b.String()
}

// --- wallclock: raw sleeps and timers ---

func TestWallClockFlagsRawSleep(t *testing.T) {
	// A raw sleep is the one-hop wall-clock call; so is waiting on a raw
	// timer channel.
	diags := lintFixture(t, lint.Config{}, "lintfixture/nosleep_tp", `
package fixture

import "time"

func wait() {
	time.Sleep(5 * time.Millisecond)
}

func tick() {
	<-time.After(0)
}
`, "wallclock")
	wantFindings(t, diags, "wallclock", "wallclock")
	if !strings.Contains(diags[0].Message, "retry.Clock") {
		t.Fatalf("message should point at the retry clock: %s", diags[0].Message)
	}
	if !strings.Contains(diags[1].Message, "time.After") {
		t.Fatalf("the timer wait should be named: %s", diags[1].Message)
	}
}

func TestWallClockIgnoresClockAndHomonyms(t *testing.T) {
	// Clock.Sleep is the sanctioned seam, and a local method named Sleep
	// is a different function entirely.
	diags := lintFixture(t, lint.Config{}, "lintfixture/nosleep_ok", `
package fixture

import (
	"time"

	"kstreams/internal/retry"
)

type throttler struct{}

func (throttler) Sleep(d time.Duration) {}

func wait(c retry.Clock) {
	retry.Or(c).Sleep(time.Millisecond)
	throttler{}.Sleep(time.Millisecond)
}
`, "wallclock")
	wantFindings(t, diags)
}

// --- norawrand ---

func TestNoRawRandFlagsGlobalFuncs(t *testing.T) {
	diags := lintFixture(t, lint.Config{}, "lintfixture/norawrand_tp", `
package fixture

import "math/rand"

func draw() int {
	rand.Shuffle(3, func(i, j int) {})
	return rand.Intn(10)
}
`, "norawrand")
	wantFindings(t, diags, "norawrand", "norawrand")
}

func TestNoRawRandAllowsSeededSource(t *testing.T) {
	diags := lintFixture(t, lint.Config{}, "lintfixture/norawrand_ok", `
package fixture

import "math/rand"

func draw() int {
	r := rand.New(rand.NewSource(42))
	r.Shuffle(3, func(i, j int) {})
	return r.Intn(10)
}
`, "norawrand")
	wantFindings(t, diags)
}

// --- lockheld-rpc ---

func TestLockHeldFlagsRPCUnderMutex(t *testing.T) {
	diags := lintFixture(t, lint.Config{}, "lintfixture/lockheld_tp", `
package fixture

import (
	"sync"

	"kstreams/internal/transport"
)

type node struct {
	mu  sync.Mutex
	net *transport.Network
}

func (n *node) rpc() {
	n.mu.Lock()
	n.net.SendTraced(1, 2, nil, nil)
	n.mu.Unlock()
}
`, "lockheld-rpc")
	wantFindings(t, diags, "lockheld-rpc")
	if !strings.Contains(diags[0].Message, "n.mu") {
		t.Fatalf("message should name the held lock: %s", diags[0].Message)
	}
}

func TestLockHeldFlagsChannelSendAndDeferScope(t *testing.T) {
	// defer mu.Unlock() keeps the lock held to the end of the body, so
	// the bare channel send below is under the lock.
	diags := lintFixture(t, lint.Config{}, "lintfixture/lockheld_chan", `
package fixture

import "sync"

type q struct {
	mu sync.Mutex
	ch chan int
}

func (s *q) push(v int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ch <- v
}
`, "lockheld-rpc")
	wantFindings(t, diags, "lockheld-rpc")
	if !strings.Contains(diags[0].Message, "channel send") {
		t.Fatalf("message should say channel send: %s", diags[0].Message)
	}
}

func TestLockHeldNearMisses(t *testing.T) {
	// Unlock-before-RPC, a select comm send (cancellable), and a send
	// inside a FuncLit (separate goroutine discipline) are all clean.
	diags := lintFixture(t, lint.Config{}, "lintfixture/lockheld_ok", `
package fixture

import (
	"sync"

	"kstreams/internal/transport"
)

type node struct {
	mu   sync.Mutex
	net  *transport.Network
	stop chan struct{}
	ch   chan int
}

func (n *node) rpc() {
	n.mu.Lock()
	n.mu.Unlock()
	n.net.SendTraced(1, 2, nil, nil)
}

func (n *node) trySend(v int) {
	n.mu.Lock()
	defer n.mu.Unlock()
	select {
	case n.ch <- v:
	case <-n.stop:
	}
}

func (n *node) spawn() {
	n.mu.Lock()
	defer n.mu.Unlock()
	f := func() { n.net.SendTraced(1, 2, nil, nil) }
	_ = f
}
`, "lockheld-rpc")
	wantFindings(t, diags)
}

func TestLockHeldBranchJoin(t *testing.T) {
	// A terminating error branch must not weaken the join: after
	// `if bad { mu.Unlock(); return }` the lock is still held on the
	// fall-through, so the RPC is flagged. The second function unlocks on
	// every live path, so its RPC is clean.
	diags := lintFixture(t, lint.Config{}, "lintfixture/lockheld_join", `
package fixture

import (
	"sync"

	"kstreams/internal/transport"
)

type node struct {
	mu  sync.Mutex
	net *transport.Network
}

func (n *node) heldOnFallthrough(bad bool) {
	n.mu.Lock()
	if bad {
		n.mu.Unlock()
		return
	}
	n.net.SendTraced(1, 2, nil, nil)
	n.mu.Unlock()
}

func (n *node) releasedOnEveryPath(bad bool) {
	n.mu.Lock()
	if bad {
		n.mu.Unlock()
	} else {
		n.mu.Unlock()
	}
	n.net.SendTraced(1, 2, nil, nil)
}
`, "lockheld-rpc")
	wantFindings(t, diags, "lockheld-rpc")
	if diags[0].Pos.Line != 21 {
		t.Fatalf("finding at line %d, want 21 (the fall-through RPC)\n%s", diags[0].Pos.Line, render(diags))
	}
}

// --- sendtraced ---

func TestSendTracedFlagsRawSend(t *testing.T) {
	diags := lintFixture(t, lint.Config{}, "lintfixture/sendtraced_tp", `
package fixture

import "kstreams/internal/transport"

func call(n *transport.Network) {
	n.Send(1, 2, "ping")
}
`, "sendtraced")
	wantFindings(t, diags, "sendtraced")
}

func TestSendTracedAcceptsTracedAndHomonyms(t *testing.T) {
	// SendTraced with an explicit nil is the sanctioned spelling; a Send
	// method on an unrelated type is out of scope.
	diags := lintFixture(t, lint.Config{}, "lintfixture/sendtraced_ok", `
package fixture

import "kstreams/internal/transport"

type mailer struct{}

func (mailer) Send(to string) {}

func call(n *transport.Network) {
	n.SendTraced(1, 2, "ping", nil)
	mailer{}.Send("x")
}
`, "sendtraced")
	wantFindings(t, diags)
}

// --- errdrop ---

func TestErrDropFlagsDiscardedError(t *testing.T) {
	diags := lintFixture(t, lint.Config{}, "lintfixture/errdrop_tp", `
package fixture

import "kstreams/internal/client"

func cleanup(p *client.Producer) {
	p.AbortTxn()
}
`, "errdrop")
	wantFindings(t, diags, "errdrop")
	if !strings.Contains(diags[0].Message, "Producer.AbortTxn") {
		t.Fatalf("message should name the API: %s", diags[0].Message)
	}
}

func TestErrDropNearMisses(t *testing.T) {
	// An explicit `_ =` documents the decision; a handled error is the
	// point; a non-error result in statement position is someone else's
	// problem (govet's, if anyone's).
	diags := lintFixture(t, lint.Config{}, "lintfixture/errdrop_ok", `
package fixture

import (
	"kstreams/internal/broker"
	"kstreams/internal/client"
)

func cleanup(p *client.Producer) error {
	_ = p.AbortTxn()
	if err := p.Flush(); err != nil {
		return err
	}
	broker.CoordinatorPartition("group", 8)
	return nil
}
`, "errdrop")
	wantFindings(t, diags)
}

// --- obsnames ---

func TestObsNamesFlagsSchemeViolations(t *testing.T) {
	diags := lintFixture(t, lint.Config{}, "lintfixture/obsnames_tp", `
package fixture

import "kstreams/internal/obs"

func register(r *obs.Registry, suffix string) {
	r.Counter("bogus_things_total")    // unknown area
	r.Counter("broker_appends")       // counter without _total
	r.Gauge("BrokerDepth")            // not lower_snake_case
	r.Histogram("txn_commit" + suffix) // computed name
}
`, "obsnames")
	wantFindings(t, diags, "obsnames", "obsnames", "obsnames", "obsnames")
	for want, frag := range map[int]string{
		0: "unknown area", 1: "_total", 2: "lower_snake_case", 3: "compile-time constant",
	} {
		if !strings.Contains(diags[want].Message, frag) {
			t.Fatalf("finding %d should mention %q: %s", want, frag, diags[want].Message)
		}
	}
}

func TestObsNamesAcceptsSchemeAndLegacy(t *testing.T) {
	diags := lintFixture(t, lint.Config{}, "lintfixture/obsnames_ok", `
package fixture

import "kstreams/internal/obs"

const commitName = "stream_commit_cycles_total"

func register(r *obs.Registry) {
	r.Counter(commitName)
	r.Counter("transport_rpcs_attempted") // grandfathered pre-§7 aggregate
	r.Gauge("group_members_active")
	r.SizeHistogram("broker_batch_bytes")
}
`, "obsnames")
	wantFindings(t, diags)
}

func TestObsNamesSingleOwnerAcrossPackages(t *testing.T) {
	// The Finalize pass sees the whole module: the same family registered
	// from two packages is exactly one finding, attributed to the
	// lexically-later package.
	ldr := testLoader(t)
	src := `
package fixture

import "kstreams/internal/obs"

func register(r *obs.Registry) {
	r.Gauge("stream_tasks_assigned")
}
`
	a, err := ldr.LoadFixture("lintfixture/owner_a", map[string]string{"fixture.go": src})
	if err != nil {
		t.Fatal(err)
	}
	b, err := ldr.LoadFixture("lintfixture/owner_b", map[string]string{"fixture.go": src})
	if err != nil {
		t.Fatal(err)
	}
	mod := &lint.Module{Root: ldr.Root(), Path: ldr.ModulePath(), Fset: ldr.Fset(), Pkgs: []*lint.Package{a, b}}
	diags := lint.RunAnalyzers(mod, lint.Config{}, pickAnalyzers(ldr, []string{"obsnames"}))
	wantFindings(t, diags, "obsnames")
	if !strings.Contains(diags[0].Message, "multiple packages") ||
		!strings.Contains(diags[0].Message, "lintfixture/owner_a") {
		t.Fatalf("finding should name both owners: %s", diags[0].Message)
	}
}

// --- suppression comments ---

func TestIgnoreCommentSuppresses(t *testing.T) {
	// Trailing comment suppresses its own line; a standalone comment
	// suppresses the line below; a comment naming a different rule does
	// not; the unsuppressed call still fires.
	diags := lintFixture(t, lint.Config{}, "lintfixture/suppress", `
package fixture

import "math/rand"

func draw() {
	rand.Int() //kslint:ignore norawrand jitter is the scenario
	//kslint:ignore norawrand warm-up draws are unseeded by design
	rand.Int()
	rand.Int() //kslint:ignore errdrop wrong rule
	rand.Int()
}
`, "norawrand")
	wantFindings(t, diags, "norawrand", "norawrand")
	if diags[0].Pos.Line != 10 || diags[1].Pos.Line != 11 {
		t.Fatalf("unsuppressed findings at lines %d,%d; want 10,11\n%s",
			diags[0].Pos.Line, diags[1].Pos.Line, render(diags))
	}
}

func TestIgnoreAllAndMultiRule(t *testing.T) {
	diags := lintFixture(t, lint.Config{}, "lintfixture/suppress_multi", `
package fixture

import (
	"math/rand"
	"time"
)

func jitter() {
	//kslint:ignore wallclock,norawrand demo path
	time.Sleep(time.Duration(rand.Intn(3)))
	time.Sleep(time.Duration(rand.Intn(3))) //kslint:ignore all demo path
}
`, "wallclock", "norawrand")
	wantFindings(t, diags)
}

// --- allowlists ---

func TestAllowlistScopesByPathPrefix(t *testing.T) {
	src := `
package fixture

import "math/rand"

func draw() int { return rand.Intn(3) }
`
	cfg := lint.Config{Allow: map[string][]string{"norawrand": {"lintfixture/allowed"}}}
	if diags := lintFixture(t, cfg, "lintfixture/allowed/sub", src, "norawrand"); len(diags) != 0 {
		t.Fatalf("allowlisted subdir still flagged:\n%s", render(diags))
	}
	diags := lintFixture(t, cfg, "lintfixture/allowedelsewhere", src, "norawrand")
	wantFindings(t, diags, "norawrand")
}

func TestDefaultConfigAllowsHarnessSleeps(t *testing.T) {
	// internal/harness drives wall-clock experiments; the repo policy
	// exempts it from wallclock but not from errdrop.
	src := `
package fixture

import "time"

func settle() { time.Sleep(time.Millisecond) }
`
	diags := lintFixture(t, lint.DefaultConfig(), "internal/harness/sub", src, "wallclock")
	wantFindings(t, diags)
}

// --- whole-module self-check ---

// TestModuleIsClean is the linter's own acceptance gate: the repository —
// including internal/lint and cmd/kslint themselves — must produce zero
// unsuppressed diagnostics under the default policy. This is the same
// invocation `make lint` runs.
func TestModuleIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-module type-check is slow")
	}
	diags, err := lint.Run("../..", lint.DefaultConfig(), nil)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if len(diags) != 0 {
		t.Fatalf("module not clean:\n%s", render(diags))
	}
}
