// Package miniyarn is a miniature YARN analog: a ResourceManager
// scheduling containers onto NodeManagers, delegation tokens, and an
// ApplicationHistoryServer (timeline service) behind an http-policy web
// endpoint.
//
// It reproduces the YARN rows of the paper's Table 3: yarn.http.policy,
// delegation-token renew-interval visibility, scheduler maximum-allocation
// limits, and yarn.timeline-service.enabled.
package miniyarn

import (
	"sync"

	"zebraconf/internal/apps/common"
	"zebraconf/internal/confkit"
)

// Node type names (paper Table 2).
const (
	TypeResourceManager = "ResourceManager"
	TypeNodeManager     = "NodeManager"
	TypeAppHistory      = "ApplicationHistoryServer"
)

// Parameter names.
const (
	ParamHTTPPolicy      = "yarn.http.policy"
	ParamTokenRenewIntvl = "yarn.resourcemanager.delegation.token.renew-interval"
	ParamMaxAllocMB      = "yarn.scheduler.maximum-allocation-mb"
	ParamMaxAllocVcores  = "yarn.scheduler.maximum-allocation-vcores"
	ParamTimelineEnabled = "yarn.timeline-service.enabled"

	// False-positive trap.
	ParamSchedulerClass = "yarn.resourcemanager.scheduler.class"

	// Heterogeneous-safe parameters.
	ParamNMMemoryMB       = "yarn.nodemanager.resource.memory-mb"
	ParamNMVcores         = "yarn.nodemanager.resource.cpu-vcores"
	ParamMinAllocMB       = "yarn.scheduler.minimum-allocation-mb"
	ParamNMHeartbeat      = "yarn.resourcemanager.nodemanagers.heartbeat-interval-ms"
	ParamNMLocalDirs      = "yarn.nodemanager.local-dirs"
	ParamNMLogDirs        = "yarn.nodemanager.log-dirs"
	ParamAMMaxAttempts    = "yarn.resourcemanager.am.max-attempts"
	ParamVmemCheck        = "yarn.nodemanager.vmem-check-enabled"
	ParamLogAggregation   = "yarn.log-aggregation-enable"
	ParamDeleteDebugDelay = "yarn.nodemanager.delete.debug-delay-sec"
	ParamFairPreemption   = "yarn.scheduler.fair.preemption"
	ParamTimelineHost     = "yarn.timeline-service.hostname"
	ParamRMAddress        = "yarn.resourcemanager.address"
)

// NewRegistry builds the miniyarn schema on top of the common library's.
func NewRegistry() *confkit.Registry {
	r := confkit.NewRegistry()
	r.Register(
		confkit.Param{Name: ParamHTTPPolicy, Kind: confkit.Enum, Default: common.PolicyHTTPOnly,
			Candidates: []string{common.PolicyHTTPOnly, common.PolicyHTTPSOnly},
			Doc:        "web endpoint scheme for YARN services",
			Truth:      confkit.SafetyUnsafe,
			Why:        "client fails to connect to Timeline web services"},
		confkit.Param{Name: ParamTokenRenewIntvl, Kind: confkit.Ticks, Default: "86400",
			Candidates: []string{"86400", "3600"},
			Doc:        "delegation token lifetime granted per renewal",
			Truth:      confkit.SafetyUnsafe,
			Why:        "end users observe newer tokens expiring earlier than prior tokens"},
		confkit.Param{Name: ParamMaxAllocMB, Kind: confkit.Int, Default: "8192",
			Candidates: []string{"8192", "16384", "1024"},
			Doc:        "largest container memory the scheduler grants",
			Truth:      confkit.SafetyUnsafe,
			Why:        "ResourceManager rejects allocations valid under the client's larger limit (decreasing the value is disallowed)"},
		confkit.Param{Name: ParamMaxAllocVcores, Kind: confkit.Int, Default: "4",
			Candidates: []string{"4", "8", "1"},
			Doc:        "largest container vcore count the scheduler grants",
			Truth:      confkit.SafetyUnsafe,
			Why:        "ResourceManager rejects allocations valid under the client's larger limit (decreasing the value is disallowed)"},
		confkit.Param{Name: ParamTimelineEnabled, Kind: confkit.Bool, Default: "true",
			Doc:   "serve (and consult) the timeline service",
			Truth: confkit.SafetyUnsafe,
			Why:   "client fails to connect to the Timeline Server"},
		confkit.Param{Name: ParamSchedulerClass, Kind: confkit.Enum, Default: "capacity",
			Candidates: []string{"capacity", "fair"},
			Doc:        "scheduler implementation",
			Truth:      confkit.SafetyFalsePositive,
			Why:        "a unit test compares the ResourceManager's private scheduler field against the client's configuration object (§7.1)"},

		confkit.Param{Name: ParamNMMemoryMB, Kind: confkit.Int, Default: "8192",
			Candidates: []string{"8192", "16384", "4096"},
			Doc:        "NodeManager advertised memory (naturally per-node)",
			Truth:      confkit.SafetyFalsePositive,
			Why:        "per-node resources are legitimately heterogeneous; the unit test sizes its request from the client's view of NodeManager capacity, an overly strict assumption (§7.1)"},
		confkit.Param{Name: ParamNMVcores, Kind: confkit.Int, Default: "8",
			Candidates: []string{"8", "16", "4"},
			Doc:        "NodeManager advertised vcores (naturally per-node)",
			Truth:      confkit.SafetyFalsePositive,
			Why:        "per-node resources are legitimately heterogeneous; the unit test sizes its request from the client's view of NodeManager capacity, an overly strict assumption (§7.1)"},
		confkit.Param{Name: ParamMinAllocMB, Kind: confkit.Int, Default: "128",
			Doc: "allocation granularity"},
		confkit.Param{Name: ParamNMHeartbeat, Kind: confkit.Ticks, Default: "100",
			Candidates: []string{"100", "1000"},
			Doc:        "NodeManager heartbeat cadence; the 20x liveness threshold tolerates the documented 10x operating range, unlike HDFS's tighter formula"},
		confkit.Param{Name: ParamNMLocalDirs, Kind: confkit.String, Default: "/data/nm-local",
			Doc: "container scratch directories"},
		confkit.Param{Name: ParamNMLogDirs, Kind: confkit.String, Default: "/data/nm-logs",
			Doc: "container log directories"},
		confkit.Param{Name: ParamAMMaxAttempts, Kind: confkit.Int, Default: "2",
			Doc: "application master retry budget"},
		confkit.Param{Name: ParamVmemCheck, Kind: confkit.Bool, Default: "true",
			Doc: "enforce virtual memory limits locally"},
		confkit.Param{Name: ParamLogAggregation, Kind: confkit.Bool, Default: "false",
			Doc: "aggregate container logs after completion"},
		confkit.Param{Name: ParamDeleteDebugDelay, Kind: confkit.Ticks, Default: "0",
			Candidates: []string{"0", "600"},
			Doc:        "delay before deleting container debug data"},
		confkit.Param{Name: ParamFairPreemption, Kind: confkit.Bool, Default: "false",
			Doc: "enable fair-scheduler preemption"},
		confkit.Param{Name: ParamTimelineHost, Kind: confkit.String, Default: "timeline",
			Doc: "timeline service host"},
		confkit.Param{Name: ParamRMAddress, Kind: confkit.String, Default: "rm",
			Doc: "ResourceManager IPC address"},
	)
	r.Include(common.NewRegistry())
	return r
}

// schema builds the registry once; every App() and every execution shares it.
var schema = sync.OnceValue(NewRegistry)
