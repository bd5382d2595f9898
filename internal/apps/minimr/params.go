// Package minimr is a miniature MapReduce analog: MapTask and ReduceTask
// nodes with a real shuffle (partitioned, optionally compressed and
// encrypted map output served over the rpcsim fabric), output committers
// (algorithm v1/v2), and a JobHistoryServer.
//
// It reproduces the MapReduce rows of the paper's Table 3: partition-count
// skew (job.maps / job.reduces), map-output compression and codec skew,
// encrypted intermediate data, shuffle SSL, committer algorithm skew, and
// the output-file-naming visibility problem.
package minimr

import (
	"sync"

	"zebraconf/internal/apps/common"
	"zebraconf/internal/confkit"
)

// Node type names (paper Table 2).
const (
	TypeMapTask    = "MapTask"
	TypeReduceTask = "ReduceTask"
	TypeJobHistory = "JobHistoryServer"
)

// Parameter names.
const (
	ParamJobMaps               = "mapreduce.job.maps"
	ParamJobReduces            = "mapreduce.job.reduces"
	ParamMapOutputCompress     = "mapreduce.map.output.compress"
	ParamMapOutputCodec        = "mapreduce.map.output.compress.codec"
	ParamEncryptedIntermediate = "mapreduce.job.encrypted-intermediate-data"
	ParamShuffleSSL            = "mapreduce.shuffle.ssl.enabled"
	ParamCommitterVersion      = "mapreduce.fileoutputcommitter.algorithm.version"
	ParamOutputCompress        = "mapreduce.output.fileoutputformat.compress"

	// False-positive trap.
	ParamTaskProfile = "mapreduce.task.profile"

	// Heterogeneous-safe parameters.
	ParamIOSortMB         = "mapreduce.task.io.sort.mb"
	ParamMapMemoryMB      = "mapreduce.map.memory.mb"
	ParamReduceMemoryMB   = "mapreduce.reduce.memory.mb"
	ParamSortSpillPercent = "mapreduce.map.sort.spill.percent"
	ParamSpeculativeMaps  = "mapreduce.map.speculative"
	ParamParallelCopies   = "mapreduce.reduce.shuffle.parallelcopies"
	ParamHistoryMaxAge    = "mapreduce.jobhistory.max-age-ms"
	ParamHistoryAddress   = "mapreduce.jobhistory.address"
	ParamQueueName        = "mapreduce.job.queuename"
	ParamAMMaxAttempts    = "mapreduce.am.max-attempts"
	ParamTaskTimeout      = "mapreduce.task.timeout"
	ParamLinesPerMap      = "mapreduce.input.lineinputformat.linespermap"
)

// NewRegistry builds the minimr schema on top of the common library's.
func NewRegistry() *confkit.Registry {
	r := confkit.NewRegistry()
	r.Register(
		confkit.Param{Name: ParamJobMaps, Kind: confkit.Int, Default: "2",
			Candidates: []string{"2", "4", "1"},
			Doc:        "number of map tasks; reducers derive their fetch fan-in from it",
			Truth:      confkit.SafetyUnsafe,
			Why:        "Reducer fails when copying Mapper output (fetches from mappers that do not exist, or misses some)"},
		confkit.Param{Name: ParamJobReduces, Kind: confkit.Int, Default: "2",
			Candidates: []string{"2", "4", "1"},
			Doc:        "number of reduce tasks; mappers partition their output by it",
			Truth:      confkit.SafetyUnsafe,
			Why:        "Reducer fails when copying Mapper output (its partition does not exist on a mapper with a smaller count)"},
		confkit.Param{Name: ParamMapOutputCompress, Kind: confkit.Bool, Default: "false",
			Doc:   "compress intermediate map output",
			Truth: confkit.SafetyUnsafe,
			Why:   "Reducer fails during shuffling due to incorrect header"},
		confkit.Param{Name: ParamMapOutputCodec, Kind: confkit.Enum, Default: "deflate",
			Candidates: []string{"deflate", "rle"},
			Doc:        "intermediate compression codec (only effective with compression on)",
			Truth:      confkit.SafetyUnsafe,
			Why:        "Reducer fails during shuffling due to incorrect header (unexpected codec)",
			// The paper's §4 dependency rule: testing the codec requires
			// enabling compression on the same node (the HDFS http/https
			// address example's analog).
			DependsOn: []confkit.DependencyRule{
				{If: "deflate", Then: ParamMapOutputCompress, To: "true"},
				{If: "rle", Then: ParamMapOutputCompress, To: "true"},
			}},
		confkit.Param{Name: ParamEncryptedIntermediate, Kind: confkit.Bool, Default: "false",
			Doc:   "encrypt intermediate map output at rest",
			Truth: confkit.SafetyUnsafe,
			Why:   "Reducer fails during shuffling due to checksum/record error on undecryptable data"},
		confkit.Param{Name: ParamShuffleSSL, Kind: confkit.Bool, Default: "false",
			Doc:   "TLS on the shuffle transport",
			Truth: confkit.SafetyUnsafe,
			Why:   "shuffle endpoint fails to decode messages (invalid SSL/TLS record)"},
		confkit.Param{Name: ParamCommitterVersion, Kind: confkit.Enum, Default: "2",
			Candidates: []string{"1", "2"},
			Doc:        "file output committer algorithm: v1 stages under _temporary, v2 writes directly",
			Truth:      confkit.SafetyUnsafe,
			Why:        "tasks and the job committer disagree about commit directories; output files go missing"},
		confkit.Param{Name: ParamOutputCompress, Kind: confkit.Bool, Default: "false",
			Doc:   "compress final output files (changes their names)",
			Truth: confkit.SafetyUnsafe,
			Why:   "end users observe inconsistent names of output files (visible through the public output listing)"},
		confkit.Param{Name: ParamTaskProfile, Kind: confkit.Bool, Default: "false",
			Doc:   "enable per-task JVM profiling",
			Truth: confkit.SafetyFalsePositive,
			Why:   "a unit test compares a task's private profiling flag against the client's configuration object (§7.1)"},

		confkit.Param{Name: ParamIOSortMB, Kind: confkit.Int, Default: "100",
			Doc: "map-side sort buffer size"},
		confkit.Param{Name: ParamMapMemoryMB, Kind: confkit.Int, Default: "1024",
			Doc: "map task memory"},
		confkit.Param{Name: ParamReduceMemoryMB, Kind: confkit.Int, Default: "1024",
			Doc: "reduce task memory"},
		confkit.Param{Name: ParamSortSpillPercent, Kind: confkit.String, Default: "0.80",
			Candidates: []string{"0.80", "0.50"},
			Doc:        "spill threshold fraction"},
		confkit.Param{Name: ParamSpeculativeMaps, Kind: confkit.Bool, Default: "true",
			Doc: "speculatively execute slow map tasks"},
		confkit.Param{Name: ParamParallelCopies, Kind: confkit.Int, Default: "5",
			Doc: "parallel shuffle fetchers per reducer"},
		confkit.Param{Name: ParamHistoryMaxAge, Kind: confkit.Ticks, Default: "604800",
			Doc: "job history retention"},
		confkit.Param{Name: ParamHistoryAddress, Kind: confkit.String, Default: "jhs",
			Doc: "job history server address"},
		confkit.Param{Name: ParamQueueName, Kind: confkit.String, Default: "default",
			Candidates: []string{"default", "batch"},
			Doc:        "submission queue"},
		confkit.Param{Name: ParamAMMaxAttempts, Kind: confkit.Int, Default: "2",
			Doc: "application master attempts"},
		confkit.Param{Name: ParamTaskTimeout, Kind: confkit.Ticks, Default: "600000",
			Doc: "task liveness timeout"},
		confkit.Param{Name: ParamLinesPerMap, Kind: confkit.Int, Default: "1",
			Doc: "lines per input split"},
	)
	r.Include(common.NewRegistry())
	return r
}

// schema builds the registry once; every App() and every execution shares it.
var schema = sync.OnceValue(NewRegistry)
