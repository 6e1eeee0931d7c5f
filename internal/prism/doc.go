// Package prism implements the Prism-MW architectural middleware
// (DSN'04 §4.2, [11]): the implementation platform the framework's
// Monitor and Effector components hook into.
//
// A distributed application is a set of Architecture objects — one per
// host — each holding Components and Connectors (collectively Bricks).
// Components communicate exclusively by exchanging Events routed by
// Connectors; a Scaffold schedules and dispatches events on a thread
// pool. DistributionConnectors bridge architectures across host
// boundaries over a pluggable Transport (the netsim fabric in simulation,
// TCP between real processes, frames in the binary codec or gob).
//
// Architectural self-awareness follows the paper's design: monitors
// (EvtFrequencyMonitor, NetworkReliabilityMonitor) attach to bricks via
// the Monitor interface; the meta-level AdminComponent accesses its local
// Architecture to monitor and reconfigure it, and the DeployerComponent
// (an Admin with deployment duties) coordinates system-wide redeployment:
// admins detach migrating components, serialize them, ship them as
// events, and the receiving admins reconstitute and reattach them.
package prism
