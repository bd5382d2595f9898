// Package minihbase is a miniature HBase analog: an HMaster assigning
// regions to HRegionServers, region servers flushing to an embedded
// minihdfs cluster, and a ThriftServer speaking a tiny Thrift-like wire
// format with configurable compact/framed transports.
//
// It reproduces the HBase rows of the paper's Table 3
// (hbase.regionserver.thrift.compact and .framed), the paper's HBase
// false-positive example (§7.1: a test opening a region directly on the
// region server with the client's configuration object), and the layering
// property Table 5 assumes: HBase depends on HDFS, so an HBase campaign
// also exercises NameNode/DataNode parameters.
package minihbase

import (
	"sync"

	"zebraconf/internal/apps/common"
	"zebraconf/internal/apps/minihdfs"
	"zebraconf/internal/confkit"
)

// Node type names (paper Table 2). The embedded minihdfs nodes keep their
// own type names.
const (
	TypeHMaster      = "HMaster"
	TypeRegionServer = "HRegionServer"
	TypeThriftServer = "ThriftServer"
)

// Parameter names.
const (
	ParamThriftCompact = "hbase.regionserver.thrift.compact"
	ParamThriftFramed  = "hbase.regionserver.thrift.framed"

	// False-positive trap (the paper's §7.1 HBase example).
	ParamMemstoreBlockMult = "hbase.hregion.memstore.block.multiplier"

	// Heterogeneous-safe parameters.
	ParamRSHandlerCount = "hbase.regionserver.handler.count"
	ParamMemstoreFlush  = "hbase.hregion.memstore.flush.size"
	ParamClientRetries  = "hbase.client.retries.number"
	ParamZKQuorum       = "hbase.zookeeper.quorum"
	ParamMaxFileSize    = "hbase.hregion.max.filesize"
	ParamScannerCaching = "hbase.client.scanner.caching"
	ParamMasterAddress  = "hbase.master.address"
	ParamThriftAddress  = "hbase.regionserver.thrift.address"
	ParamSanityChecks   = "hbase.table.sanity.checks"
	ParamBalancerPeriod = "hbase.balancer.period"
)

// NewRegistry builds the minihbase schema. Like real HBase it layers on
// HDFS (and through it on Hadoop Common), so an HBase campaign covers
// those parameters too.
func NewRegistry() *confkit.Registry {
	r := confkit.NewRegistry()
	r.Register(
		confkit.Param{Name: ParamThriftCompact, Kind: confkit.Bool, Default: "false",
			Doc:   "use the Thrift compact protocol",
			Truth: confkit.SafetyUnsafe,
			Why:   "Thrift Admin fails to communicate with the Thrift Server (protocol id mismatch)"},
		confkit.Param{Name: ParamThriftFramed, Kind: confkit.Bool, Default: "false",
			Doc:   "use the Thrift framed transport",
			Truth: confkit.SafetyUnsafe,
			Why:   "Thrift Admin fails to communicate with the Thrift Server (invalid frame size)"},
		confkit.Param{Name: ParamMemstoreBlockMult, Kind: confkit.Int, Default: "4",
			Candidates: []string{"4", "8"},
			Doc:        "memstore block threshold multiplier",
			Truth:      confkit.SafetyFalsePositive,
			Why:        "a unit test opens a region directly on the HRegionServer with the client's configuration object, impossible over a real RPC (§7.1)"},
		confkit.Param{Name: ParamRSHandlerCount, Kind: confkit.Int, Default: "30",
			Doc: "region server handler threads"},
		confkit.Param{Name: ParamMemstoreFlush, Kind: confkit.Int, Default: "2048",
			Doc: "memstore flush threshold in bytes (scaled)"},
		confkit.Param{Name: ParamClientRetries, Kind: confkit.Int, Default: "5",
			Doc: "client operation retries"},
		confkit.Param{Name: ParamZKQuorum, Kind: confkit.String, Default: "zk1",
			Doc: "zookeeper quorum (unused placeholder)"},
		confkit.Param{Name: ParamMaxFileSize, Kind: confkit.Int, Default: "65536",
			Doc: "region split threshold (scaled)"},
		confkit.Param{Name: ParamScannerCaching, Kind: confkit.Int, Default: "100",
			Doc: "rows fetched per scanner RPC"},
		confkit.Param{Name: ParamMasterAddress, Kind: confkit.String, Default: "hmaster",
			Doc: "HMaster IPC address"},
		confkit.Param{Name: ParamThriftAddress, Kind: confkit.String, Default: "thrift",
			Doc: "ThriftServer address"},
		confkit.Param{Name: ParamSanityChecks, Kind: confkit.Bool, Default: "true",
			Doc: "validate table descriptors"},
		confkit.Param{Name: ParamBalancerPeriod, Kind: confkit.Ticks, Default: "30000",
			Doc: "region balancer cadence"},
	)
	r.Include(minihdfs.NewRegistry())
	return r
}

// Keep the common import for the IPC helpers used by the node files.
var _ = common.SecurityFromConf

// schema builds the registry once; every App() and every execution shares it.
var schema = sync.OnceValue(NewRegistry)
