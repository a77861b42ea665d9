package main

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/workload"
)

func exec(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var out, errb bytes.Buffer
	code := run(args, &out, &errb)
	return code, out.String(), errb.String()
}

func TestBadFlagExitsTwo(t *testing.T) {
	if code, _, _ := exec(t, "-definitely-not-a-flag"); code != 2 {
		t.Fatalf("exit code %d, want 2", code)
	}
}

func TestHelpExitsZero(t *testing.T) {
	if code, _, _ := exec(t, "-h"); code != 0 {
		t.Fatalf("-h exit code %d, want 0", code)
	}
}

func TestUnreachableDeploymentExitsOne(t *testing.T) {
	code, _, errb := exec(t, "-nodes", "127.0.0.1:1", "-wait", "300ms", "-timeout", "200ms")
	if code != 1 {
		t.Fatalf("exit code %d, want 1; stderr:\n%s", code, errb)
	}
}

// startDeployment builds a live multi-member TCP deployment inside the test
// process (same topology as three cckvs-node processes) for the CLI to
// drive.
func startDeployment(t *testing.T, proto core.Protocol, nodes int, numKeys uint64, cacheItems int) []string {
	t.Helper()
	cfg := cluster.Config{
		Nodes: nodes, System: cluster.CCKVS, Protocol: proto,
		NumKeys: numKeys, CacheItems: cacheItems, ValueSize: 16,
	}
	trs := make([]*fabric.TCPTransport, nodes)
	addrs := make([]string, nodes)
	for i := range trs {
		tr, err := fabric.NewTCPTransport(uint8(i), "127.0.0.1:0", fabric.NewStats())
		if err != nil {
			t.Fatal(err)
		}
		trs[i] = tr
		addrs[i] = tr.ListenAddr()
	}
	for i, tr := range trs {
		for j, addr := range addrs {
			if j != i {
				tr.AddPeer(uint8(j), addr)
			}
		}
		m, err := cluster.NewMember(cfg, i, tr, nil)
		if err != nil {
			t.Fatal(err)
		}
		tr.SetPeerDownHandler(m.PeerDown)
		m.Populate()
		t.Cleanup(func() { m.Close() })
	}
	return addrs
}

// The full CLI pipeline against a live deployment: hot-set bootstrap, skewed
// workload, mid-run online refresh, consistency check, hit-rate floor.
func TestLoadEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("live deployment run")
	}
	for _, proto := range []core.Protocol{core.SC, core.Lin} {
		t.Run(proto.String(), func(t *testing.T) {
			addrs := startDeployment(t, proto, 3, 4096, 32)
			code, out, errb := exec(t,
				"-nodes", strings.Join(addrs, ","),
				"-keys", "4096", "-hotset", "32", "-alpha", "0.99", "-writes", "0.1",
				"-ops", "400", "-clients", "4", "-value", "16",
				"-refresh-at", "0.5", "-refresh-shift", "8",
				"-verify", "-verify-keys", "8", "-verify-rounds", "10",
				"-min-hit-rate", "0.05",
			)
			if code != 0 {
				t.Fatalf("exit code %d\nstdout:\n%s\nstderr:\n%s", code, out, errb)
			}
			for _, want := range []string{
				"deployment ready: 3 nodes",
				"hot set installed: 32 keys",
				"mid-run refresh",
				"consistency check passed",
				"aggregate hit rate",
			} {
				if !strings.Contains(out, want) {
					t.Fatalf("output missing %q:\n%s", want, out)
				}
			}
		})
	}
}

// A hot set smaller than the checked-key budget must not duplicate verify
// keys (two writers racing one key would fake a stale read), and a 1-round
// check must not stall on the halfway barrier.
func TestLoadVerifySmallHotsetAndShortRounds(t *testing.T) {
	if testing.Short() {
		t.Skip("live deployment run")
	}
	addrs := startDeployment(t, core.SC, 2, 1024, 2)
	code, out, errb := exec(t,
		"-nodes", strings.Join(addrs, ","),
		"-keys", "1024", "-hotset", "2", "-ops", "50", "-clients", "2",
		"-verify", "-verify-keys", "8", "-verify-rounds", "1",
	)
	if code != 0 {
		t.Fatalf("exit code %d\nstdout:\n%s\nstderr:\n%s", code, out, errb)
	}
	if !strings.Contains(out, "consistency check passed") {
		t.Fatalf("check did not pass:\n%s", out)
	}
}

// An impossible hit-rate floor must fail the run — this is the CI tripwire
// that proves the floor is actually enforced.
func TestLoadHitRateFloorEnforced(t *testing.T) {
	if testing.Short() {
		t.Skip("live deployment run")
	}
	addrs := startDeployment(t, core.SC, 2, 1024, 8)
	code, _, errb := exec(t,
		"-nodes", strings.Join(addrs, ","),
		"-keys", "1024", "-hotset", "8", "-ops", "100", "-clients", "2",
		"-min-hit-rate", "1.1", // unattainable
	)
	if code != 1 || !strings.Contains(errb, "below required") {
		t.Fatalf("code=%d stderr=%q, want floor violation", code, errb)
	}
}

// Under SC a workload write still in flight when the consistency check
// writes the same key can win the Lamport tie, so the workload must never
// write a checked key — on the single-op and the batched path alike (both
// build their ops with clientOp). The generated stream is deterministic and
// skewed onto the hot checked keys, so it does propose such writes.
func TestWorkloadNeverWritesCheckedKeys(t *testing.T) {
	vo := verifyOpts{nodes: 2, keys: 1024, verifyKeys: 8, hotset: 2, chaosDown: -1, replicas: 1}
	checked := vo.checkedKeys()
	if len(checked) != 8 {
		t.Fatalf("checked keys %v, want 8", checked)
	}
	readOnly := keySet(checked)
	gen, err := workload.New(workload.Config{
		NumKeys: vo.keys, Alpha: 0.99, WriteRatio: 0.5, RMWFrac: 0.1, ValueSize: 16, Seed: 42,
	})
	if err != nil {
		t.Fatal(err)
	}
	proposed := 0
	for c := uint64(0); c < 4; c++ {
		g := gen.Clone(c)
		for i := 0; i < 5000; i++ {
			op := g.Next()
			if readOnly[op.Key] && op.Type != workload.Get {
				proposed++
			}
			if b := clientOp(op, readOnly); readOnly[b.Key] && b.EffectiveKind() != cluster.OpGet {
				t.Fatalf("workload %v to checked key %d", b.EffectiveKind(), b.Key)
			}
		}
	}
	if proposed == 0 {
		t.Fatal("the generator proposed no writes to checked keys; the test checks nothing")
	}
}
