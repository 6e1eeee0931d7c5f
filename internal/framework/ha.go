package framework

import (
	"fmt"

	"dif/internal/model"
	"dif/internal/prism"
)

// HAConfig parameterizes EnableHA: which hosts run warm-standby
// deployers alongside the master's, where each deployer keeps its
// checkpoint log, and the lease protocol tuning.
type HAConfig struct {
	// Standbys are the hosts that run warm-standby deployers; the master
	// is always a deployer host and must not be listed.
	Standbys []model.HostID
	// StateDirs maps every deployer host — master included — to its
	// checkpoint directory. Every deployer host needs one: leadership
	// without a durable log cannot fence terms or replicate waves.
	StateDirs map[model.HostID]string
	// Lease tunes the leadership protocol. Agents defaults to every host
	// in the world; Peers is computed per deployer and must be left empty.
	Lease prism.LeaderConfig
}

// HACluster is the live multi-deployer control plane EnableHA returns:
// per-host deployers, their leadership handles, and their stores. The
// caller drives elections (Campaign on the intended first leader,
// Failover on a standby whose watch fires) and replication pacing
// (ReplicationTick) explicitly — drills stay deterministic, and live
// binaries wrap the same calls in timers.
type HACluster struct {
	Deps   map[model.HostID]*prism.DeployerComponent
	Leads  map[model.HostID]*prism.Leadership
	Stores map[model.HostID]*prism.DeployerStore
}

// Close closes every store (deployers die with the world).
func (c *HACluster) Close() {
	for _, ds := range c.Stores {
		_ = ds.Close()
	}
}

// EnableHA upgrades the world to a highly available deployer tier:
// every standby host gets its own deployer component, every deployer —
// master included — gets a durable store and a leadership handle wired
// to the full agent set, with the other deployer hosts as replication
// peers. No election is run; the caller campaigns on whichever deployer
// should lead first.
func (w *World) EnableHA(cfg HAConfig) (*HACluster, error) {
	hosts := append([]model.HostID{w.Master}, cfg.Standbys...)
	seen := make(map[model.HostID]bool, len(hosts))
	for _, h := range hosts {
		if w.down[h] {
			return nil, fmt.Errorf("framework ha: deployer host %s is down", h)
		}
		if seen[h] {
			return nil, fmt.Errorf("framework ha: duplicate deployer host %s", h)
		}
		seen[h] = true
		if cfg.StateDirs[h] == "" {
			return nil, fmt.Errorf("framework ha: deployer host %s has no state dir", h)
		}
	}
	lease := cfg.Lease
	if len(lease.Agents) == 0 {
		lease.Agents = w.Sys.HostIDs()
	}
	cluster := &HACluster{
		Deps:   make(map[model.HostID]*prism.DeployerComponent, len(hosts)),
		Leads:  make(map[model.HostID]*prism.Leadership, len(hosts)),
		Stores: make(map[model.HostID]*prism.DeployerStore, len(hosts)),
	}
	for _, h := range hosts {
		dep := w.hosts[h].Deployer
		if dep == nil {
			var err error
			if dep, err = w.RestartDeployerOn(h); err != nil {
				return nil, err
			}
		}
		ds, err := prism.OpenDeployerStore(cfg.StateDirs[h])
		if err != nil {
			return nil, err
		}
		if err := dep.AttachStore(ds); err != nil {
			ds.Close()
			return nil, err
		}
		lc := lease
		for _, p := range hosts {
			if p != h {
				lc.Peers = append(lc.Peers, p)
			}
		}
		le, err := dep.AttachLeadership(lc)
		if err != nil {
			ds.Close()
			return nil, err
		}
		cluster.Deps[h] = dep
		cluster.Leads[h] = le
		cluster.Stores[h] = ds
	}
	return cluster, nil
}

// RestartDeployerOn simulates a deployer-process crash and restart on
// any live host (see RestartDeployer for the master-only legacy entry
// point): the old component, if the host carries one, is closed and
// removed, and a fresh one installed — which is also how a standby host
// gets its first. The host's incarnation is NOT bumped — a deployer
// restart is a process event, not a host failure. Callers re-attach the
// host's durable store and leadership, then Resume or campaign as the
// drill requires.
func (w *World) RestartDeployerOn(h model.HostID) (*prism.DeployerComponent, error) {
	if w.down[h] {
		return nil, fmt.Errorf("framework world: host %s is down", h)
	}
	host, ok := w.hosts[h]
	if !ok {
		return nil, fmt.Errorf("framework world: unknown host %s", h)
	}
	if host.Deployer != nil {
		host.Deployer.Close()
		if _, err := host.Arch.RemoveComponent(prism.DeployerID); err != nil {
			return nil, err
		}
	}
	dep, err := prism.InstallDeployer(host.Arch, w.adminCfg)
	if err != nil {
		return nil, err
	}
	host.Deployer = dep
	if h == w.Master {
		w.Deployer = dep
	}
	return dep, nil
}
