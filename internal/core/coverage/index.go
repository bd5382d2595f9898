package coverage

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"

	"zebraconf/internal/canonjson"
	"zebraconf/internal/confkit"
)

// Entry is one test's persisted coverage record.
type Entry struct {
	// Digest keys the entry to its inputs: (test, seed, environment
	// key, and every read parameter's schema digest). A rerun replays
	// this test's stored results only while Digest still matches.
	Digest string `json:"digest"`
	// Params is the sorted, deduplicated set of parameters this test
	// was observed reading — pre-run reads plus any conditional reads
	// surfaced during phase-2 executions.
	Params []string `json:"params"`
	// ParamDigests maps each read parameter to its schema digest at
	// record time, so a rerun can name exactly which parameter's
	// definition changed.
	ParamDigests map[string]string `json:"param_digests,omitempty"`
	// Callsites maps a parameter to the sorted app-frame file:line
	// locations that read it (pre-run only; advisory).
	Callsites map[string][]string `json:"callsites,omitempty"`
}

// Index is the persisted param→tests coverage index for one app,
// keyed by (app, test, code/flags digest). Its serialized form is
// canonical: maps marshal with sorted keys and every slice is sorted
// at build time, so local and distributed runs of the same campaign
// produce byte-identical files.
type Index struct {
	App string `json:"app"`
	// Seed is the campaign base seed the entries were recorded under.
	Seed int64 `json:"seed"`
	// EnvKey digests the execution environment beyond the schema —
	// the CLI mixes in its verdict-relevant flags, the same set the
	// ledger records — so entries invalidate when significance,
	// rounds, or strategy change.
	EnvKey string `json:"env_key,omitempty"`
	// Tests maps test name → coverage entry.
	Tests map[string]*Entry `json:"tests"`
}

// ParamDigest canonically digests the behavior-relevant fields of a
// parameter definition: name, kind, default, candidates, and
// dependency rules. Truth labels, docs, and rationale are excluded —
// they affect scoring, not execution — so annotating a param does not
// invalidate reruns.
func ParamDigest(p *confkit.Param) string {
	if p == nil {
		return "absent"
	}
	h := sha256.New()
	w := func(s string) {
		h.Write([]byte(s))
		h.Write([]byte{0})
	}
	w(p.Name)
	w(strconv.Itoa(int(p.Kind)))
	w(p.Default)
	for _, c := range p.Candidates {
		w(c)
	}
	for _, d := range p.DependsOn {
		w(d.If)
		w(d.Then)
		w(d.To)
	}
	sum := h.Sum(nil)
	return hex.EncodeToString(sum[:12])
}

// TestDigest derives an entry digest from a test's identity and the
// schema digests of the parameters it reads. paramDigests must hold a
// digest for every element of params.
func TestDigest(test string, seed int64, envKey string, params []string, paramDigests map[string]string) string {
	sorted := append([]string(nil), params...)
	sort.Strings(sorted)
	h := sha256.New()
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(seed))
	h.Write(b[:])
	w := func(s string) {
		h.Write([]byte(s))
		h.Write([]byte{0})
	}
	w(test)
	w(envKey)
	for _, p := range sorted {
		w(p)
		w(paramDigests[p])
	}
	sum := h.Sum(nil)
	return hex.EncodeToString(sum[:16])
}

// digestsFor computes the schema digests for params under schema.
func digestsFor(params []string, schema *confkit.Registry) map[string]string {
	out := make(map[string]string, len(params))
	for _, p := range params {
		out[p] = ParamDigest(schema.Lookup(p))
	}
	return out
}

// Build freezes a collector into a canonical index under the given
// identity. Every test the collector observed gets an entry — even
// zero-read tests, whose empty entries let selection skip them.
func Build(app string, seed int64, envKey string, col *Collector, schema *confkit.Registry) *Index {
	ix := &Index{App: app, Seed: seed, EnvKey: envKey, Tests: make(map[string]*Entry)}
	for _, t := range col.Tests() {
		params, _ := col.Params(t)
		pd := digestsFor(params, schema)
		ix.Tests[t] = &Entry{
			Digest:       TestDigest(t, seed, envKey, params, pd),
			Params:       params,
			ParamDigests: pd,
			Callsites:    col.Sites(t),
		}
	}
	return ix
}

// Adopt copies prev's entries for the named tests into ix — used by
// -mode rerun to carry forward coverage for tests it replayed without
// executing.
func (ix *Index) Adopt(prev *Index, tests []string) {
	if prev == nil {
		return
	}
	for _, t := range tests {
		if e := prev.Tests[t]; e != nil {
			if _, exists := ix.Tests[t]; !exists {
				ix.Tests[t] = e
			}
		}
	}
}

// Valid reports whether test's entry still matches the current
// (seed, envKey, schema) inputs — i.e. whether its recorded coverage
// can be trusted for selection or replay. Tests without entries are
// never valid.
func (ix *Index) Valid(test string, seed int64, envKey string, schema *confkit.Registry) bool {
	if ix == nil {
		return false
	}
	e := ix.Tests[test]
	if e == nil {
		return false
	}
	pd := digestsFor(e.Params, schema)
	return TestDigest(test, seed, envKey, e.Params, pd) == e.Digest
}

// ChangedParams names the parameters in test's entry whose schema
// digest no longer matches (empty when the entry is absent or the
// drift is outside the param set — seed or env key).
func (ix *Index) ChangedParams(test string, schema *confkit.Registry) []string {
	if ix == nil {
		return nil
	}
	e := ix.Tests[test]
	if e == nil {
		return nil
	}
	var changed []string
	for _, p := range e.Params {
		if ParamDigest(schema.Lookup(p)) != e.ParamDigests[p] {
			changed = append(changed, p)
		}
	}
	sort.Strings(changed)
	return changed
}

// TestsReading returns the sorted tests with an edge to param.
func (ix *Index) TestsReading(param string) []string {
	if ix == nil {
		return nil
	}
	var out []string
	for t, e := range ix.Tests {
		for _, p := range e.Params {
			if p == param {
				out = append(out, t)
				break
			}
		}
	}
	sort.Strings(out)
	return out
}

// Bytes renders the canonical serialized form: json.MarshalIndent's
// bytes with a two-space indent, and a newline. Map keys encode sorted
// and all slices were sorted at build time, so equal indexes render
// byte-identically regardless of construction order.
func (ix *Index) Bytes() ([]byte, error) {
	var buf bytes.Buffer
	if err := ix.write(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// write renders the canonical serialized form to w: json.Encoder's
// compact bytes, indented as they stream out.
func (ix *Index) write(w io.Writer) error {
	iw := canonjson.NewIndenter(w)
	if err := json.NewEncoder(iw).Encode(ix); err != nil {
		return err
	}
	return iw.Flush()
}

// PathFor locates app's index file inside a ledger directory.
func PathFor(dir, app string) string {
	return filepath.Join(dir, "coverage-"+app+".json")
}

// Save writes the index canonically under dir (created if needed).
func Save(dir string, ix *Index) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tmp := PathFor(dir, ix.App) + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if err := ix.write(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return os.Rename(tmp, PathFor(dir, ix.App))
}

// Load reads app's index from dir; a missing file is (nil, nil) — a
// cold start, not an error.
func Load(dir, app string) (*Index, error) {
	b, err := os.ReadFile(PathFor(dir, app))
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil, nil
		}
		return nil, err
	}
	var ix Index
	if err := json.Unmarshal(b, &ix); err != nil {
		return nil, fmt.Errorf("coverage index %s: %w", PathFor(dir, app), err)
	}
	if ix.Tests == nil {
		ix.Tests = make(map[string]*Entry)
	}
	return &ix, nil
}
