package cliflags

import (
	"flag"
	"io"
	"os"
	"testing"
	"time"

	"dif/internal/prism"
)

// TestSharedFlagParity parses representative command lines the way both
// binaries do and checks the shared surface lands identically: same
// names, same defaults, same parsed values whichever binary gets them.
func TestSharedFlagParity(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want Common
	}{
		{
			name: "defaults",
			args: nil,
			want: Common{FaultSeed: 1, AppRetransmit: 250 * time.Millisecond},
		},
		{
			name: "fault drill",
			args: []string{"-fault-drop", "0.2", "-fault-dup", "0.05", "-fault-seed", "42"},
			want: Common{FaultDrop: 0.2, FaultDup: 0.05, FaultSeed: 42,
				AppRetransmit: 250 * time.Millisecond},
		},
		{
			name: "liveness",
			args: []string{"-heartbeat", "250ms"},
			want: Common{FaultSeed: 1, Heartbeat: 250 * time.Millisecond,
				AppRetransmit: 250 * time.Millisecond},
		},
		{
			name: "observability",
			args: []string{"-metrics-addr", "127.0.0.1:9090", "-trace-out", "trace.jsonl"},
			want: Common{FaultSeed: 1, MetricsAddr: "127.0.0.1:9090", TraceOut: "trace.jsonl",
				AppRetransmit: 250 * time.Millisecond},
		},
		{
			name: "delivery layer retuned",
			args: []string{"-app-retransmit", "50ms"},
			want: Common{FaultSeed: 1, AppRetransmit: 50 * time.Millisecond},
		},
		{
			name: "delivery layer off",
			args: []string{"-app-retransmit", "0s"},
			want: Common{FaultSeed: 1},
		},
		{
			name: "send-buffer high-water mark",
			args: []string{"-batch-bytes", "65536"},
			want: Common{FaultSeed: 1, AppRetransmit: 250 * time.Millisecond,
				BatchBytes: 65536},
		},
		{
			name: "asymmetric gray fault",
			args: []string{"-fault-asym", "0.6", "-fault-seed", "9"},
			want: Common{FaultAsym: 0.6, FaultSeed: 9,
				AppRetransmit: 250 * time.Millisecond},
		},
		{
			name: "shedding on with capacity",
			args: []string{"-shed", "-shed-capacity", "64"},
			want: Common{FaultSeed: 1, AppRetransmit: 250 * time.Millisecond,
				Shed: true, ShedCapacity: 64},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// The admission capacity defaults to the library's value;
			// cases only spell it out when the flag is exercised.
			want := tc.want
			if want.ShedCapacity == 0 {
				want.ShedCapacity = prism.DefaultQueueCap
			}
			// Both binaries register the shared set the same way; parsing
			// the same argv must produce the same Common in each.
			for _, binary := range []string{"deployer", "agent"} {
				fs := flag.NewFlagSet(binary, flag.ContinueOnError)
				got := Register(fs)
				if err := fs.Parse(tc.args); err != nil {
					t.Fatalf("%s: parse: %v", binary, err)
				}
				if *got != want {
					t.Fatalf("%s: parsed %+v, want %+v", binary, *got, want)
				}
			}
		})
	}
	fs := flag.NewFlagSet("agent", flag.ContinueOnError)
	Register(fs)
	n := 0
	fs.VisitAll(func(*flag.Flag) { n++ })
	if n != 11 {
		t.Fatalf("shared set registers %d flags, want 11", n)
	}
}

// TestBatchFlushFlagRemoved pins that the knobs whose forks were deleted
// are gone from both binaries — the idle-flush timer (TCP coalescing is
// clocked by the socket) and the retry-less control plane — so a drill
// script that still passes one must fail loudly, not be ignored.
func TestBatchFlushFlagRemoved(t *testing.T) {
	for _, args := range [][]string{{"-batch-flush", "2ms"}, {"-no-retry"}} {
		fs := flag.NewFlagSet("agent", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		Register(fs)
		if err := fs.Parse(args); err == nil {
			t.Fatalf("%s still parses", args[0])
		}
	}
}

// TestRegisterDurable pins the deployer-only durability surface: the
// flag parses, defaults to disabled, and is NOT part of the shared set
// (agents keep soft state only — recovery waves rebuild them).
func TestRegisterDurable(t *testing.T) {
	fs := flag.NewFlagSet("deployer", flag.ContinueOnError)
	Register(fs)
	got := RegisterDurable(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if got.StateDir != "" {
		t.Fatalf("default state-dir = %q, want empty (disabled)", got.StateDir)
	}
	fs2 := flag.NewFlagSet("deployer", flag.ContinueOnError)
	Register(fs2)
	got = RegisterDurable(fs2)
	if err := fs2.Parse([]string{"-state-dir", "/var/lib/dif"}); err != nil {
		t.Fatal(err)
	}
	if got.StateDir != "/var/lib/dif" {
		t.Fatalf("state-dir = %q", got.StateDir)
	}
	// The shared Register set must not grow a state-dir: an agent given
	// the deployer's durability flag should reject it.
	agent := flag.NewFlagSet("agent", flag.ContinueOnError)
	agent.SetOutput(discard{})
	Register(agent)
	if err := agent.Parse([]string{"-state-dir", "x"}); err == nil {
		t.Fatal("agent flag set accepted -state-dir")
	}
}

// TestRegisterHA pins the deployer-only high-availability surface:
// defaults select the classic solo deployer, the flags parse, -peers
// splits cleanly, and none of it leaks into the shared set (an agent
// given a deployer HA flag must reject it — agents vote and fence, but
// never campaign or replicate).
func TestRegisterHA(t *testing.T) {
	fs := flag.NewFlagSet("deployer", flag.ContinueOnError)
	Register(fs)
	got := RegisterHA(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if got.Standby || got.Peers != "" || got.LeaseTTL != prism.DefaultLeaseTTL {
		t.Fatalf("HA defaults = %+v, want solo deployer with default TTL", *got)
	}
	if got.PeerList() != nil {
		t.Fatalf("PeerList() on empty -peers = %v, want nil", got.PeerList())
	}

	fs2 := flag.NewFlagSet("deployer", flag.ContinueOnError)
	Register(fs2)
	got = RegisterHA(fs2)
	if err := fs2.Parse([]string{"-standby", "-peers", "h1, h3,", "-lease-ttl", "750ms"}); err != nil {
		t.Fatal(err)
	}
	if !got.Standby || got.LeaseTTL != 750*time.Millisecond {
		t.Fatalf("HA = %+v", *got)
	}
	if pl := got.PeerList(); len(pl) != 2 || pl[0] != "h1" || pl[1] != "h3" {
		t.Fatalf("PeerList() = %v, want [h1 h3]", pl)
	}
	if pa, err := got.PeerAddrs(); err != nil || pa["h1"] != "" || pa["h3"] != "" {
		t.Fatalf("PeerAddrs() on bare entries = %v, %v", pa, err)
	}

	// host=addr entries carry a dial address; bare ones map to "".
	fs3 := flag.NewFlagSet("deployer", flag.ContinueOnError)
	Register(fs3)
	got = RegisterHA(fs3)
	if err := fs3.Parse([]string{"-peers", "h1=10.0.0.1:7001, h3"}); err != nil {
		t.Fatal(err)
	}
	if pl := got.PeerList(); len(pl) != 2 || pl[0] != "h1" || pl[1] != "h3" {
		t.Fatalf("PeerList() with addrs = %v, want [h1 h3]", pl)
	}
	pa, err := got.PeerAddrs()
	if err != nil {
		t.Fatal(err)
	}
	if pa["h1"] != "10.0.0.1:7001" || pa["h3"] != "" || len(pa) != 2 {
		t.Fatalf("PeerAddrs() = %v", pa)
	}
	got.Peers = "h1=a,h1=b"
	if _, err := got.PeerAddrs(); err == nil {
		t.Fatal("PeerAddrs() accepted a duplicate host")
	}
	got.Peers = "=addr"
	if _, err := got.PeerAddrs(); err == nil {
		t.Fatal("PeerAddrs() accepted an entry with no host ID")
	}

	for _, arg := range []string{"-standby", "-peers", "-lease-ttl"} {
		agent := flag.NewFlagSet("agent", flag.ContinueOnError)
		agent.SetOutput(discard{})
		Register(agent)
		if err := agent.Parse([]string{arg, "x"}); err == nil {
			t.Fatalf("agent flag set accepted %s", arg)
		}
	}
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }

func TestFaultConfig(t *testing.T) {
	c := Common{FaultDrop: 0.1, FaultDup: 0.02, FaultSeed: 7}
	if !c.Faulty() {
		t.Fatal("Faulty() = false with drop and dup rates set")
	}
	fc := c.FaultConfig(nil)
	if fc.Seed != 7 || fc.DropRate != 0.1 || fc.DupRate != 0.02 {
		t.Fatalf("FaultConfig = %+v", fc)
	}
	var zero Common
	if zero.Faulty() {
		t.Fatal("Faulty() = true on zero value")
	}

	// -fault-asym alone turns fault injection on, and lands on the
	// inbound direction only — outbound stays clean, so the process
	// limps exactly the way a gray failure does.
	asym := Common{FaultAsym: 0.6, FaultSeed: 3}
	if !asym.Faulty() {
		t.Fatal("Faulty() = false with -fault-asym set")
	}
	afc := asym.FaultConfig(nil)
	if afc.Inbound.DropRate != 0.6 || afc.DropRate != 0 || afc.Outbound.DropRate != 0 {
		t.Fatalf("asym FaultConfig = %+v, want inbound-only drop", afc)
	}
}

// TestBreakerAndAdmissionConfig pins that the circuit breaker's flags
// are gone (every control send is one attempt its owning loop re-drives,
// and the detector's health score judges gray peers) and the builder
// behind -shed: off by default, and the capacity lands where the prism
// layer expects it.
func TestBreakerAndAdmissionConfig(t *testing.T) {
	for _, args := range [][]string{{"-breaker"}, {"-breaker-cooldown", "200ms"}, {"-breaker-probes", "2"}} {
		fs := flag.NewFlagSet("agent", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		Register(fs)
		if err := fs.Parse(args); err == nil {
			t.Fatalf("%s still parses", args[0])
		}
	}
	var off Common
	if off.Admission().Enabled {
		t.Fatal("admission enabled without -shed")
	}
	on := Common{Shed: true, ShedCapacity: 64}
	ac := on.Admission()
	if !ac.Enabled || ac.QueueCap != 64 {
		t.Fatalf("Admission = %+v", ac)
	}
}

func TestDeliveryConfig(t *testing.T) {
	on := Common{AppRetransmit: 250 * time.Millisecond}
	if on.Delivery().Disabled {
		t.Fatal("Delivery().Disabled with a positive retransmit interval")
	}
	var off Common
	if !off.Delivery().Disabled {
		t.Fatal("Delivery() enabled with -app-retransmit 0")
	}
}

func TestObservabilityShutdownWritesTrace(t *testing.T) {
	out := t.TempDir() + "/trace.jsonl"
	c := Common{TraceOut: out}
	_, tracer, shutdown, err := c.Observability(io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	sp := tracer.Start("cycle")
	sp.SetAttr("mode", "test")
	sp.End()
	shutdown()
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) == 0 {
		t.Fatal("trace-out file is empty")
	}
}
