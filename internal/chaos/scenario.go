package chaos

import (
	"fmt"
	"math/rand"
	"time"

	"dif/internal/model"
)

// Config parameterizes a chaos scenario. The zero value of any field
// selects the default in brackets.
type Config struct {
	// Seed drives everything deterministic: the generated op list, the
	// fabric, and every host's fault stream.
	Seed int64
	// Hosts [4] and Probes [5] size the world (Hosts must stay in 2..9 so
	// lexicographic host order matches numeric order and both deployer
	// hosts — h1 and h2 — exist).
	Hosts  int
	Probes int
	// Ops [20] is the generated scenario length (epilogue heals extra).
	Ops int
	// DropRate [0.2], DupRate [0.1], DelayRate [0.1], and Delay [2ms]
	// tune each host's FaultTransport.
	DropRate  float64
	DupRate   float64
	DelayRate float64
	Delay     time.Duration
	// WaveTimeout [30s] bounds each redeployment wave; SettleTimeout
	// [60s] bounds the end-of-scenario delivery drain.
	WaveTimeout   time.Duration
	SettleTimeout time.Duration
}

func (c Config) withDefaults() Config {
	if c.Hosts < 2 {
		c.Hosts = 4
	}
	if c.Probes == 0 {
		c.Probes = 5
	}
	if c.Ops == 0 {
		c.Ops = 24
	}
	if c.DropRate == 0 {
		c.DropRate = 0.2
	}
	if c.DupRate == 0 {
		c.DupRate = 0.1
	}
	if c.DelayRate == 0 {
		c.DelayRate = 0.1
	}
	if c.Delay == 0 {
		c.Delay = 2 * time.Millisecond
	}
	if c.WaveTimeout == 0 {
		c.WaveTimeout = 30 * time.Second
	}
	if c.SettleTimeout == 0 {
		c.SettleTimeout = 60 * time.Second
	}
	return c
}

// OpKind enumerates scenario operations.
type OpKind int

const (
	// OpTraffic injects N application events from host A at component Comp.
	OpTraffic OpKind = iota
	// OpMigrate moves Comp from host A to host B through a full
	// two-phase wave, with extra traffic injected mid-wave.
	OpMigrate
	// OpAbortMigrate crashes destination B first, then starts the same
	// wave — which must roll back, with all in-flight traffic surviving.
	OpAbortMigrate
	// OpCrash fail-stops host A; its probes are restored on the master.
	OpCrash
	// OpRestart resurrects crashed host A with a bumped incarnation.
	OpRestart
	// OpPartition severs the A—B link; OpHeal restores it.
	OpPartition
	OpHeal
	// OpDeployerCrash runs a migration wave (Comp from A to B) with the
	// deployer armed to die — kill -9 style — at the checkpoint named by
	// Phase: 0 = right after the epoch's open lands, 1 = at the decision
	// write once every destination prepared, with nothing of it landed,
	// 2 = right after the decision lands. The runner restarts the
	// deployer from its log and asserts the wave resumes (phase 2
	// commits) or cleanly aborts (phases 0–1) without replanning.
	OpDeployerCrash
	// OpDeployerRestart bounces the deployer process between waves: close,
	// restart, replay the log, resume. Nothing undecided may surface.
	OpDeployerRestart
	// OpLeaderKill fail-stops the current leader deployer's PROCESS (its
	// host stays up): the warm standby on B campaigns at the next fencing
	// term, wins the agent quorum, and resumes from its replicated log;
	// the old leader is then revived as the new standby and resynced.
	OpLeaderKill
	// OpLeasePause simulates a long stall (GC pause) on the leader A: the
	// standby B usurps the lease at the next term while A's process stays
	// alive and still believes it leads. A discovers the new term from
	// the usurper's replication stream, stands down, and must refuse to
	// coordinate; it then resyncs as B's standby.
	OpLeasePause
	// OpRejoinResync resurrects crashed host A (bumped incarnation, like
	// OpRestart) and then drives the goal-state pump: the rejoined agent
	// announces its empty manifest and generation zero, the leader answers
	// with one full delta, and the runner spins until the agent's ack
	// converges on the host's goal generation — then asserts the agent's
	// live manifest matches the goal byte for byte. No wave replay, no
	// replan: the delta exchange alone must restore the host.
	OpRejoinResync
	// OpAsymPartition cuts only the A→B direction: frames from A vanish
	// silently before reaching B while B→A flows clean — the canonical
	// gray failure a symmetric partition cannot model. OpAsymHeal restores
	// the direction. B is never a deployer host, so the failure detector's
	// heartbeat feed stays honest and any death verdict the cut provokes
	// is a real false positive (the no-false-dead invariant catches it).
	OpAsymPartition
	OpAsymHeal
	// OpLinkFlap rides a traffic burst across the A—B link while it flaps
	// on a seeded schedule: short observable outages in both directions
	// that heal themselves before the op returns. Self-contained — no
	// lingering state.
	OpLinkFlap
	// OpSlowLink is OpLinkFlap's silent sibling: every frame on the A—B
	// link is held back and delivered late (reordered past later frames)
	// for the duration of the burst. Self-contained.
	OpSlowLink
	// OpOverload floods the admission controller: a large burst of
	// application events from host A at component Comp, far past what the
	// per-class queues absorb in one gulp. Shed frames must be recovered
	// by end-to-end retransmission and the flood must never displace
	// liveness traffic (again: the no-false-dead invariant).
	OpOverload
)

// deployerCrashPhases names OpDeployerCrash.Phase values in op
// descriptions and wave lines.
var deployerCrashPhases = [3]string{"open", "prepared", "decided"}

// String names the op kind for scenario reports.
func (k OpKind) String() string {
	switch k {
	case OpTraffic:
		return "traffic"
	case OpMigrate:
		return "migrate"
	case OpAbortMigrate:
		return "abort-migrate"
	case OpCrash:
		return "crash"
	case OpRestart:
		return "restart"
	case OpPartition:
		return "partition"
	case OpHeal:
		return "heal"
	case OpDeployerCrash:
		return "deployer-crash"
	case OpDeployerRestart:
		return "deployer-restart"
	case OpLeaderKill:
		return "leader-kill"
	case OpLeasePause:
		return "lease-pause"
	case OpRejoinResync:
		return "rejoin-resync"
	case OpAsymPartition:
		return "asym-partition"
	case OpAsymHeal:
		return "asym-heal"
	case OpLinkFlap:
		return "link-flap"
	case OpSlowLink:
		return "slow-link"
	case OpOverload:
		return "overload"
	}
	return fmt.Sprintf("opkind(%d)", int(k))
}

// Op is one scenario step. Field use per kind: OpTraffic{Comp, A, N};
// OpMigrate/OpAbortMigrate{Comp, A=src, B=dst}; OpCrash/OpRestart{A};
// OpPartition/OpHeal{A, B}; OpDeployerCrash{Comp, A=src, B=dst, Phase};
// OpDeployerRestart{}; OpLeaderKill/OpLeasePause{A=old leader, B=new};
// OpAsymPartition/OpAsymHeal{A=from, B=to};
// OpLinkFlap/OpSlowLink{A, B, Comp, N}; OpOverload{A=origin, Comp, N}.
type Op struct {
	Kind OpKind
	Comp string
	A, B model.HostID
	N    int
	// Phase picks the two-phase transition an OpDeployerCrash dies at
	// (see the kind's doc comment).
	Phase int
}

func (o Op) describe() string {
	switch o.Kind {
	case OpTraffic:
		return fmt.Sprintf("traffic origin=%s target=%s n=%d", o.A, o.Comp, o.N)
	case OpMigrate, OpAbortMigrate:
		return fmt.Sprintf("%s comp=%s src=%s dst=%s", o.Kind, o.Comp, o.A, o.B)
	case OpCrash, OpRestart, OpRejoinResync:
		return fmt.Sprintf("%s host=%s", o.Kind, o.A)
	case OpPartition, OpHeal:
		return fmt.Sprintf("%s a=%s b=%s", o.Kind, o.A, o.B)
	case OpDeployerCrash:
		return fmt.Sprintf("deployer-crash comp=%s src=%s dst=%s phase=%s",
			o.Comp, o.A, o.B, deployerCrashPhases[o.Phase])
	case OpLeaderKill, OpLeasePause:
		return fmt.Sprintf("%s old=%s new=%s", o.Kind, o.A, o.B)
	case OpAsymPartition, OpAsymHeal:
		return fmt.Sprintf("%s from=%s to=%s", o.Kind, o.A, o.B)
	case OpLinkFlap, OpSlowLink:
		return fmt.Sprintf("%s a=%s b=%s comp=%s n=%d", o.Kind, o.A, o.B, o.Comp, o.N)
	case OpOverload:
		return fmt.Sprintf("overload origin=%s target=%s n=%d", o.A, o.Comp, o.N)
	}
	return o.Kind.String()
}

func hostIDs(n int) []model.HostID {
	out := make([]model.HostID, n)
	for i := range out {
		out[i] = model.HostID(fmt.Sprintf("h%d", i+1))
	}
	return out
}

func probeIDs(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("p%d", i+1)
	}
	return out
}

// initialPlacement spreads probes round-robin over hosts. The generator
// and the runner both start from it, so the generator's simulated world
// state tracks the live one exactly.
func initialPlacement(hosts []model.HostID, probes []string) map[string]model.HostID {
	p := make(map[string]model.HostID, len(probes))
	for i, id := range probes {
		p[id] = hosts[i%len(hosts)]
	}
	return p
}

type hostPair struct{ a, b model.HostID }

func orderedPair(a, b model.HostID) hostPair {
	if b < a {
		a, b = b, a
	}
	return hostPair{a, b}
}

// dirPair is one direction of a link: frames travelling from→to. Unlike
// hostPair it is NOT normalized — the whole point of an asymmetric
// partition is that the two directions differ.
type dirPair struct{ from, to model.HostID }

// scenarioState is the generator's pure simulation of the world: which
// hosts are up, where each probe lives, and which links are partitioned.
// Ops are only generated when their preconditions hold, so replaying the
// list against the live world cannot hit an illegal transition —
// assuming wave outcomes are deterministic, which the runner asserts.
type scenarioState struct {
	master    model.HostID
	standby   model.HostID // second deployer host (warm standby at start)
	leader    model.HostID // which of the two deployer hosts currently leads
	hosts     []model.HostID
	probes    []string
	up        map[model.HostID]bool
	placement map[string]model.HostID
	parts     map[hostPair]bool
	// asym tracks open one-way cuts (OpAsymPartition), direction-keyed.
	asym map[dirPair]bool
}

func newScenarioState(cfg Config) *scenarioState {
	hosts := hostIDs(cfg.Hosts)
	probes := probeIDs(cfg.Probes)
	st := &scenarioState{
		master:    hosts[0],
		standby:   hosts[1],
		leader:    hosts[0],
		hosts:     hosts,
		probes:    probes,
		up:        make(map[model.HostID]bool, len(hosts)),
		placement: initialPlacement(hosts, probes),
		parts:     make(map[hostPair]bool),
		asym:      make(map[dirPair]bool),
	}
	for _, h := range hosts {
		st.up[h] = true
	}
	return st
}

// deployerHost reports whether h carries one of the two HA deployers.
// Both must stay alive for the whole scenario: one is always the
// leader, the other the warm standby the leadership ops fail over to.
func (st *scenarioState) deployerHost(h model.HostID) bool {
	return h == st.master || h == st.standby
}

// otherDeployer is the deployer host that is NOT currently leading.
func (st *scenarioState) otherDeployer() model.HostID {
	if st.leader == st.master {
		return st.standby
	}
	return st.master
}

// quorumUp reports whether a strict majority of agents is reachable
// with no partitions — symmetric or one-way — open: the precondition for
// every op that runs a leadership campaign (leader-kill, lease-pause,
// deployer restarts). A silent one-way cut can eat a candidate's lease
// requests outright, so campaigns wait for a clean fabric like waves do.
func (st *scenarioState) quorumUp() bool {
	return len(st.parts) == 0 && len(st.asym) == 0 &&
		len(st.upHosts(nil)) >= len(st.hosts)/2+1
}

func (st *scenarioState) upHosts(exclude func(model.HostID) bool) []model.HostID {
	var out []model.HostID
	for _, h := range st.hosts {
		if st.up[h] && (exclude == nil || !exclude(h)) {
			out = append(out, h)
		}
	}
	return out
}

func (st *scenarioState) downHosts() []model.HostID {
	var out []model.HostID
	for _, h := range st.hosts {
		if !st.up[h] {
			out = append(out, h)
		}
	}
	return out
}

func (st *scenarioState) partitioned(h model.HostID) bool {
	for pr := range st.parts {
		if pr.a == h || pr.b == h {
			return true
		}
	}
	for pr := range st.asym {
		if pr.from == h || pr.to == h {
			return true
		}
	}
	return false
}

func (st *scenarioState) sortedParts() []hostPair {
	var out []hostPair
	for _, a := range st.hosts {
		for _, b := range st.hosts {
			if a < b && st.parts[hostPair{a, b}] {
				out = append(out, hostPair{a, b})
			}
		}
	}
	return out
}

func (st *scenarioState) sortedAsym() []dirPair {
	var out []dirPair
	for _, a := range st.hosts {
		for _, b := range st.hosts {
			if a != b && st.asym[dirPair{a, b}] {
				out = append(out, dirPair{a, b})
			}
		}
	}
	return out
}

// crash simulates a fail-stop: the host goes down and its probes are
// restored from origin copies on the master (the runner does the same).
func (st *scenarioState) crash(h model.HostID) {
	st.up[h] = false
	for _, p := range st.probes {
		if st.placement[p] == h {
			st.placement[p] = st.master
		}
	}
}

// GenerateScenario derives a deterministic op list from the seed. Op
// frequencies roughly: 37% traffic, 17% migration (a third of those
// abort-flavored, a third deployer-crash-flavored), 7% partition, 5%
// heal, 6% asymmetric partition, 4% link flap, 4% slow link, 3%
// overload, 7% crash, 2% host restart, 2% rejoin-resync, 2% deployer
// restart, 2% leader kill, 2% lease pause — with every ineligible draw
// degrading to a traffic burst so the list length is stable. A heal
// epilogue closes any partition still open — symmetric or one-way — so
// the settle phase can drain all in-flight traffic.
func GenerateScenario(cfg Config) []Op {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	st := newScenarioState(cfg)

	traffic := func() Op {
		up := st.upHosts(nil)
		return Op{
			Kind: OpTraffic,
			A:    up[rng.Intn(len(up))],
			Comp: st.probes[rng.Intn(len(st.probes))],
			N:    1 + rng.Intn(3),
		}
	}

	ops := make([]Op, 0, cfg.Ops)
	for len(ops) < cfg.Ops {
		op := traffic()
		switch r := rng.Intn(100); {
		case r < 37:
			// keep the traffic op
		case r < 54: // migration (waves need a partition-free control plane)
			if len(st.parts) > 0 || len(st.asym) > 0 {
				break
			}
			comp := st.probes[rng.Intn(len(st.probes))]
			src := st.placement[comp]
			dsts := st.upHosts(func(h model.HostID) bool { return h == src })
			if len(dsts) == 0 {
				break
			}
			dst := dsts[rng.Intn(len(dsts))]
			flavor := rng.Intn(6)
			if flavor < 2 {
				// Abort flavor: the destination dies under the wave. Both
				// deployer hosts must survive — one is the coordinator, the
				// other the warm standby — so re-pick.
				adsts := st.upHosts(func(h model.HostID) bool {
					return h == src || st.deployerHost(h)
				})
				if len(adsts) > 0 {
					dst = adsts[rng.Intn(len(adsts))]
					op = Op{Kind: OpAbortMigrate, Comp: comp, A: src, B: dst}
					st.crash(dst)
					break
				}
				// No eligible abort destination: degrade to a plain wave.
			} else if flavor < 4 && st.quorumUp() {
				// Deployer-crash flavor: the wave runs with the deployer
				// armed to die at one of the two-phase checkpoints. Only a
				// decided crash (phase 2) ends with the move committed — the
				// restart resumes its persisted commit; open/prepared
				// crashes abort on restart, leaving placement unchanged.
				// The restarted process re-campaigns, hence the quorum gate.
				phase := rng.Intn(3)
				op = Op{Kind: OpDeployerCrash, Comp: comp, A: src, B: dst, Phase: phase}
				if phase == 2 {
					st.placement[comp] = dst
				}
				break
			}
			op = Op{Kind: OpMigrate, Comp: comp, A: src, B: dst}
			st.placement[comp] = dst
		case r < 61: // partition
			if len(st.parts) >= 2 {
				break
			}
			up := st.upHosts(nil)
			var pairs []hostPair
			for i, a := range up {
				for _, b := range up[i+1:] {
					if st.parts[hostPair{a, b}] ||
						st.asym[dirPair{a, b}] || st.asym[dirPair{b, a}] {
						continue
					}
					pairs = append(pairs, hostPair{a, b})
				}
			}
			if len(pairs) == 0 {
				break
			}
			pr := pairs[rng.Intn(len(pairs))]
			st.parts[pr] = true
			op = Op{Kind: OpPartition, A: pr.a, B: pr.b}
		case r < 66: // heal one open cut, symmetric or one-way
			parts := st.sortedParts()
			asyms := st.sortedAsym()
			if len(parts)+len(asyms) == 0 {
				break
			}
			i := rng.Intn(len(parts) + len(asyms))
			if i < len(parts) {
				pr := parts[i]
				delete(st.parts, pr)
				op = Op{Kind: OpHeal, A: pr.a, B: pr.b}
			} else {
				pr := asyms[i-len(parts)]
				delete(st.asym, pr)
				op = Op{Kind: OpAsymHeal, A: pr.from, B: pr.to}
			}
		case r < 72: // asymmetric partition: cut one direction only
			if len(st.asym) >= 2 {
				break
			}
			up := st.upHosts(nil)
			var pairs []dirPair
			for _, from := range up {
				for _, to := range up {
					// The silent side of the cut must never face a deployer
					// host: heartbeats and lease grants flow toward the
					// deployers, and eating them would manufacture exactly the
					// false death verdict the invariant forbids.
					if from == to || st.deployerHost(to) {
						continue
					}
					if st.asym[dirPair{from, to}] || st.parts[orderedPair(from, to)] {
						continue
					}
					pairs = append(pairs, dirPair{from, to})
				}
			}
			if len(pairs) == 0 {
				break
			}
			pr := pairs[rng.Intn(len(pairs))]
			st.asym[pr] = true
			op = Op{Kind: OpAsymPartition, A: pr.from, B: pr.to}
		case r < 80: // link flap / slow link: self-contained gray windows
			up := st.upHosts(nil)
			if len(up) < 2 {
				break
			}
			a := up[rng.Intn(len(up))]
			b := up[rng.Intn(len(up))]
			if a == b {
				break
			}
			kind := OpLinkFlap
			if r >= 76 {
				kind = OpSlowLink
			}
			op = Op{
				Kind: kind, A: a, B: b,
				Comp: st.probes[rng.Intn(len(st.probes))],
				N:    1 + rng.Intn(3),
			}
		case r < 83: // overload: flood far past one admission gulp
			up := st.upHosts(nil)
			op = Op{
				Kind: OpOverload,
				A:    up[rng.Intn(len(up))],
				Comp: st.probes[rng.Intn(len(st.probes))],
				N:    80 + rng.Intn(40),
			}
		case r < 90: // crash (never a deployer host, never a partitioned host)
			cands := st.upHosts(func(h model.HostID) bool {
				return st.deployerHost(h) || st.partitioned(h)
			})
			if len(cands) == 0 {
				break
			}
			h := cands[rng.Intn(len(cands))]
			st.crash(h)
			op = Op{Kind: OpCrash, A: h}
		default: // restart family and leadership chaos
			switch {
			case r >= 98: // lease pause: the standby usurps a live leader
				if !st.quorumUp() {
					break
				}
				next := st.otherDeployer()
				op = Op{Kind: OpLeasePause, A: st.leader, B: next}
				st.leader = next
			case r >= 96: // leader kill: fail-stop the leader process
				if !st.quorumUp() {
					break
				}
				next := st.otherDeployer()
				op = Op{Kind: OpLeaderKill, A: st.leader, B: next}
				st.leader = next
			case r >= 94:
				// Deployer bounce between waves: proves a quiet restart never
				// aborts, replans, or renumbers anything. The restarted
				// process re-campaigns, hence the quorum gate.
				if !st.quorumUp() {
					break
				}
				op = Op{Kind: OpDeployerRestart}
			case r >= 92:
				// Rejoin-resync: the resurrected host converges through one
				// goal-state delta exchange with the leader, so the control
				// plane must be partition-free for the pump to drain.
				if !st.quorumUp() {
					break
				}
				down := st.downHosts()
				if len(down) == 0 {
					break
				}
				h := down[rng.Intn(len(down))]
				st.up[h] = true
				op = Op{Kind: OpRejoinResync, A: h}
			default:
				down := st.downHosts()
				if len(down) == 0 {
					break
				}
				h := down[rng.Intn(len(down))]
				st.up[h] = true
				op = Op{Kind: OpRestart, A: h}
			}
		}
		ops = append(ops, op)
	}
	for _, pr := range st.sortedParts() {
		ops = append(ops, Op{Kind: OpHeal, A: pr.a, B: pr.b})
	}
	for _, pr := range st.sortedAsym() {
		ops = append(ops, Op{Kind: OpAsymHeal, A: pr.from, B: pr.to})
	}
	return ops
}
