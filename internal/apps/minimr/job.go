package minimr

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"
	"strings"
	"sync"

	"zebraconf/internal/confkit"
	"zebraconf/internal/core/harness"
	"zebraconf/internal/rpcsim"
)

// OutputStore is the in-memory distributed-filesystem stand-in job output
// is committed to. It holds no configuration of its own, so sharing it
// across nodes is safe (unlike the IPC component of §7.1).
type OutputStore struct {
	mu    sync.Mutex
	files map[string][]byte
}

// NewOutputStore returns an empty store.
func NewOutputStore() *OutputStore {
	return &OutputStore{files: make(map[string][]byte)}
}

// Put stores a file.
func (s *OutputStore) Put(path string, data []byte) {
	s.mu.Lock()
	s.files[path] = data
	s.mu.Unlock()
}

// Get reads a file.
func (s *OutputStore) Get(path string) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	data, ok := s.files[path]
	return data, ok
}

// List returns the paths under prefix, sorted.
func (s *OutputStore) List(prefix string) []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []string
	for p := range s.files {
		if strings.HasPrefix(p, prefix) {
			out = append(out, p)
		}
	}
	sort.Strings(out)
	return out
}

// Rename moves a file.
func (s *OutputStore) Rename(from, to string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	data, ok := s.files[from]
	if !ok {
		return false
	}
	delete(s.files, from)
	s.files[to] = data
	return true
}

// partitionOf assigns a word to a reduce partition.
func partitionOf(word string, reduces int64) int64 {
	h := fnv.New32a()
	h.Write([]byte(word))
	return int64(h.Sum32()) % reduces
}

// shuffleAddr is the shuffle endpoint address of map task i.
func shuffleAddr(i int64) string { return fmt.Sprintf("map-%d", i) }

// intermediateSecurity derives the at-rest encoding of map output from a
// task's configuration: compression codec and intermediate encryption.
func intermediateSecurity(conf *confkit.Conf) rpcsim.Security {
	sec := rpcsim.Security{Key: "intermediate-key"}
	// The codec class is resolved at task setup whether or not compression
	// is enabled (as Hadoop instantiates the configured codec), so the
	// pre-run records the read and the codec becomes testable via its
	// dependency rule.
	codec := conf.Get(ParamMapOutputCodec)
	if conf.GetBool(ParamMapOutputCompress) {
		sec.Codec = codec
	}
	sec.Encrypt = conf.GetBool(ParamEncryptedIntermediate)
	return sec
}

// shuffleTransportSecurity derives the shuffle TRANSPORT profile (the
// SSL analog) from a task's configuration.
func shuffleTransportSecurity(conf *confkit.Conf) rpcsim.Security {
	return rpcsim.Security{Encrypt: conf.GetBool(ParamShuffleSSL), Key: "shuffle-tls-key"}
}

// FetchReq asks a map task's shuffle endpoint for one partition.
type FetchReq struct {
	Partition int64
}

// FetchResp carries the partition's encoded bytes (at-rest encoding is the
// MAPPER's; the reducer decodes with its own settings).
type FetchResp struct {
	Data []byte
}

// MethodFetch is the one method of a map task's shuffle endpoint.
var MethodFetch = rpcsim.Method[FetchReq, FetchResp]{Name: "fetch"}

var mapTaskRPC rpcsim.Service[MapTask]

func init() { rpcsim.Handle(&mapTaskRPC, MethodFetch, (*MapTask).fetch) }

// MapTask runs one map over its input shard, partitions the output by ITS
// configured reduce count, encodes it with ITS intermediate settings, and
// serves it over a shuffle endpoint secured with ITS transport settings.
type MapTask struct {
	env  *harness.Env
	conf *confkit.Conf
	idx  int64
	srv  *rpcsim.Server
	rpc  rpcsim.Handler

	profile    bool // private state for the §7.1 trap test
	partitions [][]byte
	reduces    int64
}

// StartMapTask boots map task idx over the given input words.
func StartMapTask(env *harness.Env, conf *confkit.Conf, idx int64, input []string) (*MapTask, error) {
	env.RT.StartInit(TypeMapTask)
	defer env.RT.StopInit()

	mt := &MapTask{env: env, conf: conf.RefToClone(), idx: idx}
	_ = mt.conf.GetInt(ParamIOSortMB)
	_ = mt.conf.GetInt(ParamMapMemoryMB)
	_ = mt.conf.Get(ParamSortSpillPercent)
	_ = mt.conf.GetBool(ParamSpeculativeMaps)
	mt.profile = mt.conf.GetBool(ParamTaskProfile)

	mt.reduces = mt.conf.GetInt(ParamJobReduces)
	if mt.reduces < 1 {
		return nil, fmt.Errorf("minimr: map %d: invalid reduce count %d", idx, mt.reduces)
	}
	counts := make([]map[string]int, mt.reduces)
	for i := range counts {
		counts[i] = make(map[string]int)
	}
	for _, word := range input {
		counts[partitionOf(word, mt.reduces)][word]++
	}
	sec := intermediateSecurity(mt.conf)
	mt.partitions = make([][]byte, mt.reduces)
	for p := range counts {
		encoded, err := rpcsim.Encode(sec, renderCounts(counts[p]))
		if err != nil {
			return nil, fmt.Errorf("minimr: map %d: encode partition %d: %w", idx, p, err)
		}
		mt.partitions[p] = encoded
	}

	mt.rpc = mapTaskRPC.Bind(fmt.Sprintf("minimr: map %d", idx), mt)
	srv, err := env.Fabric.Serve(shuffleAddr(idx), shuffleTransportSecurity(mt.conf), env.Scale, mt.rpc)
	if err != nil {
		return nil, fmt.Errorf("minimr: map %d: %w", idx, err)
	}
	mt.srv = srv
	return mt, nil
}

// ProfileEnabled exposes task-private state for the §7.1 trap test only.
func (mt *MapTask) ProfileEnabled() bool { return mt.profile }

// Stop closes the shuffle endpoint.
func (mt *MapTask) Stop() { mt.srv.Close() }

func (mt *MapTask) fetch(req *FetchReq) (FetchResp, error) {
	if req.Partition < 0 || req.Partition >= mt.reduces {
		return FetchResp{}, fmt.Errorf("minimr: map %d has no partition %d (configured for %d reduces)",
			mt.idx, req.Partition, mt.reduces)
	}
	return FetchResp{Data: mt.partitions[req.Partition]}, nil
}

// renderCounts serializes a count map as sorted "word\tcount" lines.
func renderCounts(counts map[string]int) []byte {
	words := make([]string, 0, len(counts))
	for w := range counts {
		words = append(words, w)
	}
	sort.Strings(words)
	var buf bytes.Buffer
	for _, w := range words {
		fmt.Fprintf(&buf, "%s\t%d\n", w, counts[w])
	}
	return buf.Bytes()
}

// parseCounts reverses renderCounts, merging into acc.
func parseCounts(data []byte, acc map[string]int) error {
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		if line == "" {
			continue
		}
		parts := strings.SplitN(line, "\t", 2)
		if len(parts) != 2 {
			return fmt.Errorf("minimr: malformed shuffle record %q", line)
		}
		n, err := strconv.Atoi(parts[1])
		if err != nil {
			return fmt.Errorf("minimr: malformed shuffle count %q: %v", parts[1], err)
		}
		acc[parts[0]] += n
	}
	return nil
}

// ReduceTask fetches its partition from every map task (fan-in derived
// from ITS configured map count), merges, and commits output with ITS
// committer settings.
type ReduceTask struct {
	env   *harness.Env
	conf  *confkit.Conf
	idx   int64
	store *OutputStore
}

// StartReduceTask boots reduce task idx committing into outDir of store.
func StartReduceTask(env *harness.Env, conf *confkit.Conf, idx int64, store *OutputStore) (*ReduceTask, error) {
	env.RT.StartInit(TypeReduceTask)
	defer env.RT.StopInit()
	rt := &ReduceTask{env: env, conf: conf.RefToClone(), idx: idx, store: store}
	_ = rt.conf.GetInt(ParamReduceMemoryMB)
	_ = rt.conf.GetInt(ParamParallelCopies)
	return rt, nil
}

// Run shuffles, merges, and commits. It is the reduce "attempt".
func (rt *ReduceTask) Run(outDir string) error {
	maps := rt.conf.GetInt(ParamJobMaps)
	if maps < 1 {
		return fmt.Errorf("minimr: reduce %d: invalid map count %d", rt.idx, maps)
	}
	transport := shuffleTransportSecurity(rt.conf)
	atRest := intermediateSecurity(rt.conf)
	merged := make(map[string]int)
	for m := int64(0); m < maps; m++ {
		conn, err := rt.env.Fabric.Dial(shuffleAddr(m), transport, rt.env.Scale)
		if err != nil {
			return fmt.Errorf("minimr: reduce %d: copy from map %d: %w", rt.idx, m, err)
		}
		resp, err := MethodFetch.Call(conn, FetchReq{Partition: rt.idx})
		if err != nil {
			return fmt.Errorf("minimr: reduce %d: copy from map %d: %w", rt.idx, m, err)
		}
		raw, err := rpcsim.Decode(atRest, resp.Data)
		if err != nil {
			return fmt.Errorf("minimr: reduce %d: shuffle from map %d: %w", rt.idx, m, err)
		}
		if err := parseCounts(raw, merged); err != nil {
			return err
		}
	}
	return rt.commit(outDir, renderCounts(merged))
}

// OutputName renders the part file name a task (or a client checking the
// output) with conf expects for reduce index idx.
func OutputName(conf *confkit.Conf, idx int64) string {
	name := fmt.Sprintf("part-r-%05d", idx)
	if conf.GetBool(ParamOutputCompress) {
		name += ".deflate"
	}
	return name
}

// commit writes the final output per this task's committer version: v2
// writes directly into the output directory, v1 stages under _temporary
// for the job committer to promote.
func (rt *ReduceTask) commit(outDir string, data []byte) error {
	if rt.conf.GetBool(ParamOutputCompress) {
		var err error
		if data, err = rpcsim.Deflate(rpcsim.BestSpeed, data); err != nil {
			return err
		}
	}
	name := OutputName(rt.conf, rt.idx)
	switch v := rt.conf.Get(ParamCommitterVersion); v {
	case "2":
		rt.store.Put(outDir+"/"+name, data)
	case "1":
		rt.store.Put(outDir+"/_temporary/"+name, data)
	default:
		return fmt.Errorf("minimr: reduce %d: unknown committer version %q", rt.idx, v)
	}
	return nil
}

// ReadOutput reads and decodes one committed part file by its name
// (compression is sniffed from the extension, the safe embed-in-the-name
// practice).
func ReadOutput(store *OutputStore, path string) (map[string]int, error) {
	data, ok := store.Get(path)
	if !ok {
		return nil, fmt.Errorf("minimr: output file %s is missing", path)
	}
	if strings.HasSuffix(path, ".deflate") {
		raw, err := rpcsim.Inflate(data)
		if err != nil {
			return nil, fmt.Errorf("minimr: decompress %s: %w", path, err)
		}
		data = raw
	}
	counts := make(map[string]int)
	if err := parseCounts(data, counts); err != nil {
		return nil, err
	}
	return counts, nil
}
