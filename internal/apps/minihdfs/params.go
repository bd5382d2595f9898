// Package minihdfs is a miniature HDFS analog: NameNode, DataNode,
// SecondaryNameNode, JournalNode, and Balancer nodes over the rpcsim
// fabric, with block storage, checksummed write/read pipelines, heartbeats
// and liveness detection, incremental block reports, fs limits, snapshots,
// balancing with bandwidth throttling and upgrade domains.
//
// It reproduces the structural properties ZebraConf depends on (paper §6):
// a dedicated configuration class, node classes with annotated init
// functions, and whole-system unit tests that run nodes as goroutines in one
// process and share configuration objects — plus the HDFS rows of Table 3 as
// genuinely emergent behaviours.
package minihdfs

import (
	"sync"

	"zebraconf/internal/apps/common"
	"zebraconf/internal/confkit"
)

// Node type names (paper Table 2).
const (
	TypeNameNode    = "NameNode"
	TypeDataNode    = "DataNode"
	TypeSecondaryNN = "SecondaryNameNode"
	TypeJournalNode = "JournalNode"
	TypeBalancer    = "Balancer"
	TypeMover       = "Mover"
)

// Parameter names. Duration-valued parameters are in simtime ticks; sizes
// are in bytes, scaled down from production defaults so unit tests stay
// fast (the scaling is uniform, preserving every ratio that matters).
const (
	ParamBlockAccessToken    = "dfs.block.access.token.enable"
	ParamBytesPerChecksum    = "dfs.bytes-per-checksum"
	ParamIncrementalBRIntvl  = "dfs.blockreport.incremental.intervalMsec"
	ParamChecksumType        = "dfs.checksum.type"
	ParamReplaceDNOnFailure  = "dfs.client.block.write.replace-datanode-on-failure.enable"
	ParamClientSocketTimeout = "dfs.client.socket-timeout"
	ParamBalanceBandwidth    = "dfs.datanode.balance.bandwidthPerSec"
	ParamMaxConcurrentMoves  = "dfs.datanode.balance.max.concurrent.moves"
	ParamDUReserved          = "dfs.datanode.du.reserved"
	ParamDataTransferProtect = "dfs.data.transfer.protection"
	ParamEncryptDataTransfer = "dfs.encrypt.data.transfer"
	ParamTailEditsInProgress = "dfs.ha.tail-edits.in-progress"
	ParamHeartbeatInterval   = "dfs.heartbeat.interval"
	ParamHTTPPolicy          = "dfs.http.policy"
	ParamMaxComponentLength  = "dfs.namenode.fs-limits.max-component-length"
	ParamMaxDirectoryItems   = "dfs.namenode.fs-limits.max-directory-items"
	ParamRecheckInterval     = "dfs.namenode.heartbeat.recheck-interval"
	ParamMaxCorruptReturned  = "dfs.namenode.max-corrupt-file-blocks-returned"
	ParamSnapRootDescendant  = "dfs.namenode.snapshotdiff.allow.snap-root-descendant"
	ParamStaleInterval       = "dfs.namenode.stale.datanode.interval"
	ParamUpgradeDomainFactor = "dfs.namenode.upgrade.domain.factor"
	ParamPeerProtocolVersion = "dfs.datanode.peer.protocol.version"
	ParamImageCodec          = "dfs.image.compression.codec"

	// False-positive traps (§7.1 causes).
	ParamImageCompress = "dfs.image.compress"
	ParamScanPeriod    = "dfs.datanode.scan.period"
	ParamReplWorkMulti = "dfs.namenode.replication.work.multiplier"

	// Heterogeneous-safe parameters.
	ParamReplication        = "dfs.replication"
	ParamBlockSize          = "dfs.blocksize"
	ParamNNHandlerCount     = "dfs.namenode.handler.count"
	ParamDNHandlerCount     = "dfs.datanode.handler.count"
	ParamNameDir            = "dfs.namenode.name.dir"
	ParamDataDir            = "dfs.datanode.data.dir"
	ParamCheckpointPeriod   = "dfs.namenode.checkpoint.period"
	ParamCheckpointTxns     = "dfs.namenode.checkpoint.txns"
	ParamDirScanInterval    = "dfs.datanode.directoryscan.interval"
	ParamClientRetries      = "dfs.client.retry.max.attempts"
	ParamSafemodeThreshold  = "dfs.namenode.safemode.threshold-pct"
	ParamMaxTransferThreads = "dfs.datanode.max.transfer.threads"
	ParamAuditLogAsync      = "dfs.namenode.audit.log.async"
	ParamFailedVolumes      = "dfs.datanode.failed.volumes.tolerated"
	ParamReadPrefetch       = "dfs.client.read.prefetch.size"
	ParamStreamBuffer       = "dfs.stream-buffer-size"
	ParamExtraEditsRetained = "dfs.namenode.num.extra.edits.retained"
	ParamHTTPAddress        = "dfs.namenode.http-address"
	ParamHTTPSAddress       = "dfs.namenode.https-address"
	ParamSyncBehindWrites   = "dfs.datanode.sync.behind.writes"
	ParamFSLockFair         = "dfs.namenode.fslock.fair"
)

// NewRegistry builds the minihdfs schema on top of the common library's.
func NewRegistry() *confkit.Registry {
	r := confkit.NewRegistry()
	r.Register(
		confkit.Param{Name: ParamBlockAccessToken, Kind: confkit.Bool, Default: "false",
			Doc:   "require block access tokens on the NameNode IPC endpoint",
			Truth: confkit.SafetyUnsafe,
			Why:   "DataNode fails to register block pools (token handshake mismatch)"},
		confkit.Param{Name: ParamBytesPerChecksum, Kind: confkit.Int, Default: "512",
			Candidates: []string{"512", "4096", "128"},
			Doc:        "bytes covered by one block checksum chunk",
			Truth:      confkit.SafetyUnsafe,
			Why:        "checksum verification fails on DataNode (chunking skew between writer and verifier)"},
		confkit.Param{Name: ParamIncrementalBRIntvl, Kind: confkit.Ticks, Default: "0",
			Candidates: []string{"0", "300"},
			Doc:        "delay before a DataNode reports block deletions; 0 reports immediately",
			Truth:      confkit.SafetyUnsafe,
			Why:        "end users observe an inconsistent number of blocks after delete (visible through the public getStats API)"},
		confkit.Param{Name: ParamChecksumType, Kind: confkit.Enum, Default: common.ChecksumCRC32C,
			Candidates: []string{common.ChecksumCRC32C, common.ChecksumCRC32},
			Doc:        "block checksum algorithm",
			Truth:      confkit.SafetyUnsafe,
			Why:        "checksum verification fails on DataNode (algorithm skew)"},
		confkit.Param{Name: ParamReplaceDNOnFailure, Kind: confkit.Bool, Default: "true",
			Doc:   "ask the NameNode for a replacement DataNode when a pipeline node fails",
			Truth: confkit.SafetyUnsafe,
			Why:   "NameNode reports an exception when the client asks for an additional DataNode it is configured to refuse"},
		confkit.Param{Name: ParamClientSocketTimeout, Kind: confkit.Ticks, Default: "400",
			Candidates: []string{"400", "4000", "150"},
			Doc:        "data-transfer socket timeout; DataNodes stream keepalives at a third of their value",
			Truth:      confkit.SafetyUnsafe,
			Why:        "socket connection timeouts (keepalive cadence outlives a shorter peer timeout)"},
		confkit.Param{Name: ParamBalanceBandwidth, Kind: confkit.Int, Default: "100",
			Candidates: []string{"100", "1000", "10"},
			Doc:        "bytes per tick each DataNode may spend on balancing traffic",
			Truth:      confkit.SafetyUnsafe,
			Why:        "a high-limit DataNode floods a low-limit one; the victim's throttled progress reports starve and the Balancer times out"},
		confkit.Param{Name: ParamMaxConcurrentMoves, Kind: confkit.Int, Default: "50",
			Candidates: []string{"50", "1"},
			Doc:        "concurrent block moves a DataNode serves (and a Balancer dispatches)",
			Truth:      confkit.SafetyUnsafe,
			Why:        "Balancer unaware of a smaller DataNode capacity triggers the 1100-tick congestion backoff on every declined move (~10x slowdown)"},
		confkit.Param{Name: ParamDUReserved, Kind: confkit.Int, Default: "0",
			Candidates: []string{"0", "1000"},
			Doc:        "bytes per DataNode excluded from reported remaining capacity",
			Truth:      confkit.SafetyUnsafe,
			Why:        "end users observe inconsistent reserved-space accounting through the public getStats API"},
		confkit.Param{Name: ParamDataTransferProtect, Kind: confkit.Enum, Default: common.ProtectionAuthentication,
			Candidates: []string{common.ProtectionAuthentication, common.ProtectionPrivacy},
			Doc:        "SASL protection for the data-transfer channel",
			Truth:      confkit.SafetyUnsafe,
			Why:        "SASL handshake fails between client and DataNode"},
		confkit.Param{Name: ParamEncryptDataTransfer, Kind: confkit.Bool, Default: "false",
			Doc:   "encrypt the data-transfer channel",
			Truth: confkit.SafetyUnsafe,
			Why:   "DataNode cannot decode transfers from a peer with a different encryption setting"},
		confkit.Param{Name: ParamTailEditsInProgress, Kind: confkit.Bool, Default: "false",
			Doc:   "serve (and request) in-progress edit segments when tailing journals",
			Truth: confkit.SafetyUnsafe,
			Why:   "JournalNode declines the NameNode's request to fetch journaled edits"},
		confkit.Param{Name: ParamHeartbeatInterval, Kind: confkit.Ticks, Default: "3",
			Candidates: []string{"3", "1000", "1"},
			Doc:        "DataNode heartbeat cadence; NameNode liveness formula is 2*recheck + 10*interval",
			Truth:      confkit.SafetyUnsafe,
			Why:        "NameNode falsely identifies an alive DataNode as crashed"},
		confkit.Param{Name: ParamHTTPPolicy, Kind: confkit.Enum, Default: common.PolicyHTTPOnly,
			Candidates: []string{common.PolicyHTTPOnly, common.PolicyHTTPSOnly},
			Doc:        "web endpoint scheme",
			Truth:      confkit.SafetyUnsafe,
			Why:        "the DFSck tool fails to connect to the NameNode HTTP server",
			DependsOn: []confkit.DependencyRule{
				{If: common.PolicyHTTPOnly, Then: ParamHTTPAddress, To: "nn-web"},
				{If: common.PolicyHTTPSOnly, Then: ParamHTTPSAddress, To: "nn-web-ssl"},
			}},
		confkit.Param{Name: ParamMaxComponentLength, Kind: confkit.Int, Default: "255",
			Candidates: []string{"255", "1000", "50"},
			Doc:        "max path component length the NameNode accepts",
			Truth:      confkit.SafetyUnsafe,
			Why:        "component name length valid under the client's limit exceeds the NameNode's"},
		confkit.Param{Name: ParamMaxDirectoryItems, Kind: confkit.Int, Default: "32",
			Candidates: []string{"32", "320", "8"},
			Doc:        "max children per directory the NameNode accepts (scaled)",
			Truth:      confkit.SafetyUnsafe,
			Why:        "directory item count valid under the client's limit exceeds the NameNode's"},
		confkit.Param{Name: ParamRecheckInterval, Kind: confkit.Ticks, Default: "300",
			Candidates: []string{"300", "3000", "30"},
			Doc:        "NameNode liveness recheck interval",
			Truth:      confkit.SafetyUnsafe,
			Why:        "end users observe an inconsistent number of dead DataNodes"},
		confkit.Param{Name: ParamMaxCorruptReturned, Kind: confkit.Int, Default: "100",
			Candidates: []string{"100", "5"},
			Doc:        "max corrupt file blocks returned per listing call",
			Truth:      confkit.SafetyUnsafe,
			Why:        "end users observe an inconsistent number of corrupted blocks"},
		confkit.Param{Name: ParamSnapRootDescendant, Kind: confkit.Bool, Default: "true",
			Doc:   "allow snapshot diffs on descendants of the snapshot root",
			Truth: confkit.SafetyUnsafe,
			Why:   "NameNode declines the client's snapshot diff request"},
		confkit.Param{Name: ParamStaleInterval, Kind: confkit.Ticks, Default: "30",
			Candidates: []string{"30", "300"},
			Doc:        "heartbeat silence after which a DataNode is considered stale",
			Truth:      confkit.SafetyUnsafe,
			Why:        "end users observe an inconsistent number of stale DataNodes"},
		confkit.Param{Name: ParamUpgradeDomainFactor, Kind: confkit.Int, Default: "3",
			Candidates: []string{"3", "2"},
			Doc:        "distinct upgrade domains block placement must span",
			Truth:      confkit.SafetyUnsafe,
			Why:        "Balancer hangs because its moves violate the NameNode's block placement policy"},
		confkit.Param{Name: ParamPeerProtocolVersion, Kind: confkit.Int, Default: "1",
			Candidates: []string{"1", "2"},
			Doc:        "DataNode-to-DataNode replication protocol version (synthetic: exists to exercise same-type heterogeneity, detectable only by round-robin assignment)",
			Truth:      confkit.SafetyUnsafe,
			Why:        "pipeline forwarding between DataNodes with different protocol versions fails the peer handshake"},
		confkit.Param{Name: ParamImageCodec, Kind: confkit.Enum, Default: "deflate",
			Candidates: []string{"deflate", "gzip"},
			Doc:        "compression codec for saved namespace images; only consulted when dfs.image.compress is on, so the default campaign's pre-run never observes a read (the conditional-read hazard)",
			Truth:      confkit.SafetyUnsafe,
			Why:        "the image does not name its codec, so a reader inflates with its own: a gzip image fed to a deflate reader (or vice versa) fails the secondary NameNode's checkpoint",
			DependsOn: []confkit.DependencyRule{
				{If: "deflate", Then: ParamImageCompress, To: "true"},
				{If: "gzip", Then: ParamImageCompress, To: "true"},
			}},

		confkit.Param{Name: ParamImageCompress, Kind: confkit.Bool, Default: "false",
			Doc:   "compress saved namespace images",
			Truth: confkit.SafetyFalsePositive,
			Why:   "an overly strict unit-test assertion compares image file lengths; decompressed contents are identical (§7.1)"},
		confkit.Param{Name: ParamScanPeriod, Kind: confkit.Ticks, Default: "3000",
			Doc:   "DataNode directory scan period",
			Truth: confkit.SafetyFalsePositive,
			Why:   "a unit test compares node-private state against the client's configuration object, impossible in a real deployment (§7.1)"},
		confkit.Param{Name: ParamReplWorkMulti, Kind: confkit.Int, Default: "2",
			Doc:   "replication work per heartbeat multiplier",
			Truth: confkit.SafetyFalsePositive,
			Why:   "inconsistency observable only through a private NameNode accessor, not the public API (§7.1 visibility principle)"},

		confkit.Param{Name: ParamReplication, Kind: confkit.Int, Default: "2",
			Candidates: []string{"2", "3", "1"},
			Doc:        "default replication factor recorded per file at create time"},
		confkit.Param{Name: ParamBlockSize, Kind: confkit.Int, Default: "1024",
			Candidates: []string{"1024", "4096", "256"},
			Doc:        "default block size recorded per file at create time"},
		confkit.Param{Name: ParamNNHandlerCount, Kind: confkit.Int, Default: "10",
			Doc: "NameNode RPC handler goroutines"},
		confkit.Param{Name: ParamDNHandlerCount, Kind: confkit.Int, Default: "10",
			Doc: "DataNode RPC handler goroutines"},
		confkit.Param{Name: ParamNameDir, Kind: confkit.String, Default: "/data/nn",
			Doc: "NameNode metadata directory"},
		confkit.Param{Name: ParamDataDir, Kind: confkit.String, Default: "/data/dn",
			Doc: "DataNode block directory"},
		confkit.Param{Name: ParamCheckpointPeriod, Kind: confkit.Ticks, Default: "3600",
			Doc: "SecondaryNameNode checkpoint period"},
		confkit.Param{Name: ParamCheckpointTxns, Kind: confkit.Int, Default: "1000000",
			Doc: "transactions between checkpoints"},
		confkit.Param{Name: ParamDirScanInterval, Kind: confkit.Ticks, Default: "2160",
			Doc: "DataNode directory scan interval"},
		confkit.Param{Name: ParamClientRetries, Kind: confkit.Int, Default: "10",
			Doc: "client retry attempts"},
		confkit.Param{Name: ParamSafemodeThreshold, Kind: confkit.String, Default: "0.999",
			Candidates: []string{"0.999", "0.5"},
			Doc:        "fraction of blocks required to leave safe mode"},
		confkit.Param{Name: ParamMaxTransferThreads, Kind: confkit.Int, Default: "16",
			Doc: "DataNode transfer thread ceiling"},
		confkit.Param{Name: ParamAuditLogAsync, Kind: confkit.Bool, Default: "false",
			Doc: "write the audit log asynchronously"},
		confkit.Param{Name: ParamFailedVolumes, Kind: confkit.Int, Default: "0",
			Doc: "failed volumes tolerated before a DataNode shuts down"},
		confkit.Param{Name: ParamReadPrefetch, Kind: confkit.Int, Default: "4096",
			Doc: "client read prefetch size"},
		confkit.Param{Name: ParamStreamBuffer, Kind: confkit.Int, Default: "4096",
			Doc: "stream buffer size"},
		confkit.Param{Name: ParamExtraEditsRetained, Kind: confkit.Int, Default: "1000",
			Doc: "extra edit transactions retained"},
		confkit.Param{Name: ParamHTTPAddress, Kind: confkit.String, Default: "nn-web",
			Doc: "NameNode HTTP host"},
		confkit.Param{Name: ParamHTTPSAddress, Kind: confkit.String, Default: "nn-web-ssl",
			Doc: "NameNode HTTPS host"},
		confkit.Param{Name: ParamSyncBehindWrites, Kind: confkit.Bool, Default: "false",
			Doc: "advise the kernel to sync behind writes"},
		confkit.Param{Name: ParamFSLockFair, Kind: confkit.Bool, Default: "true",
			Doc: "use a fair namespace lock"},
	)
	r.Include(common.NewRegistry())
	return r
}

// schema builds the registry once; every App() and every execution shares it.
var schema = sync.OnceValue(NewRegistry)
