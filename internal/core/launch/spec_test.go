package launch

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"zebraconf/internal/apps"
	"zebraconf/internal/core/agent"
)

// altStrings gives a legal non-default value for every flag whose
// alternative cannot be derived from its type. Heartbeat's is the zero
// that used to mean "1000 ms" once submitted.
var altStrings = map[string]string{
	"app":       "miniyarn",
	"params":    "flink.checkpoint.interval,flink.task.slots",
	"tests":     "TestCheckpointBarrier",
	"sched":     "fifo",
	"seq":       "fixed",
	"select":    "all",
	"override":  "flink.task.slots=3",
	"heartbeat": "0s",
}

// observationOnly lists the fields that must not move the flags digest;
// notInDigest in spec.go argues each one out. Every other field must.
var observationOnly = map[string]bool{"App": true, "Heartbeat": true, "Overrides": true}

// baseSpec is DefaultSpec made launchable on the distributed path, so a
// change to any field has somewhere to show up.
func baseSpec() Spec {
	s := DefaultSpec()
	s.App = "miniflink"
	s.Workers = 2
	return s
}

func bound(s *Spec) *flag.FlagSet {
	fs := flag.NewFlagSet("zebraconf", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	s.Bind(fs)
	return fs
}

// altValue is a value for f that differs from its default.
func altValue(t *testing.T, f *flag.Flag) string {
	if v, ok := altStrings[f.Name]; ok {
		return v
	}
	g, ok := f.Value.(flag.Getter)
	if !ok {
		t.Fatalf("flag -%s: no alternative value known", f.Name)
	}
	switch v := g.Get().(type) {
	case bool:
		return fmt.Sprint(!v)
	case int:
		return fmt.Sprint(v + 1)
	case int64:
		return fmt.Sprint(v + 1)
	case float64:
		return fmt.Sprint(v + 0.25)
	case time.Duration:
		return (v + 90*time.Second).String()
	}
	t.Fatalf("flag -%s: no alternative value known", f.Name)
	return ""
}

// specFlags maps each Spec field to the flag Bind registers for it, found
// by setting every flag in turn and seeing which single field moved.
func specFlags(t *testing.T) map[string]*flag.Flag {
	t.Helper()
	base := baseSpec()
	out := make(map[string]*flag.Flag)
	probe := base
	bound(&probe).VisitAll(func(f *flag.Flag) {
		s := base
		if err := bound(&s).Set(f.Name, altValue(t, f)); err != nil {
			t.Fatalf("-%s: %v", f.Name, err)
		}
		var moved []string
		for i, n := 0, reflect.TypeOf(s).NumField(); i < n; i++ {
			if !reflect.DeepEqual(reflect.ValueOf(s).Field(i).Interface(), reflect.ValueOf(base).Field(i).Interface()) {
				moved = append(moved, reflect.TypeOf(s).Field(i).Name)
			}
		}
		if len(moved) != 1 || out[moved[0]] != nil {
			t.Fatalf("-%s moved fields %v, want exactly one not bound to another flag", f.Name, moved)
		}
		out[moved[0]] = f
	})
	for i, n := 0, reflect.TypeOf(base).NumField(); i < n; i++ {
		if name := reflect.TypeOf(base).Field(i).Name; out[name] == nil {
			t.Fatalf("Spec.%s is bound to no flag", name)
		}
	}
	return out
}

func mustPrepare(t *testing.T, s Spec) *prepared {
	t.Helper()
	app, err := apps.ByName(s.App)
	if err != nil {
		t.Fatal(err)
	}
	l, err := prepare(app, s, Env{})
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// TestEveryFieldSurvivesTheWholePath sets each field of Spec to a
// non-default value on the command line and follows it: flag parse → the
// JSON `-mode submit` posts → the service's decode → the campaign.Options
// and dist.Options the launcher builds → the flags digest.
func TestEveryFieldSurvivesTheWholePath(t *testing.T) {
	base := baseSpec()
	baseBuilt := mustPrepare(t, base)
	for field, f := range specFlags(t) {
		parsed := base
		if err := bound(&parsed).Parse([]string{"-" + f.Name + "=" + altValue(t, f)}); err != nil {
			t.Fatalf("%s: %v", field, err)
		}
		body, err := json.Marshal(parsed)
		if err != nil {
			t.Fatal(err)
		}
		got, err := DecodeSpec(bytes.NewReader(body))
		if err != nil {
			t.Fatalf("%s: decoding %s: %v", field, body, err)
		}
		if !reflect.DeepEqual(got, parsed) {
			t.Errorf("%s: posted %+v, service decoded %+v", field, parsed, got)
		}
		if reflect.DeepEqual(reflect.ValueOf(got).FieldByName(field).Interface(), reflect.ValueOf(base).FieldByName(field).Interface()) {
			t.Errorf("%s: -%s=%s did not reach the service", field, f.Name, altValue(t, f))
		}
		built := mustPrepare(t, got)
		if reflect.DeepEqual(built.opts, baseBuilt.opts) && reflect.DeepEqual(built.dopts, baseBuilt.dopts) {
			t.Errorf("%s: the launcher builds the same options with and without -%s=%s", field, f.Name, altValue(t, f))
		}
		if changed := got.Digest() != base.Digest(); changed == observationOnly[field] {
			t.Errorf("%s: changes the flags digest = %v, listed as observation-only = %v", field, changed, observationOnly[field])
		}
	}
}

// TestDriftedSettingsReachTheEngine pins the four settings that used to be
// lost or rewritten between `-mode submit` and the served campaign.
func TestDriftedSettingsReachTheEngine(t *testing.T) {
	s := baseSpec()
	err := bound(&s).Parse([]string{"-select=all", "-thread-only", "-override=flink.task.slots=3", "-heartbeat=0"})
	if err != nil {
		t.Fatal(err)
	}
	body, _ := json.Marshal(s)
	got, err := DecodeSpec(bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	l := mustPrepare(t, got)
	if l.opts.SelectCoverage {
		t.Error("-select all: coverage selection still on")
	}
	if l.opts.Strategy != agent.StrategyThreadOnly || l.dopts.Config.Strategy != int(agent.StrategyThreadOnly) {
		t.Error("-thread-only did not reach the campaign and worker configuration")
	}
	if got.ExecFlags()["thread-only"] != "true" {
		t.Error("-thread-only is not in the flags digest")
	}
	want := map[string]string{"flink.task.slots": "3"}
	if !reflect.DeepEqual(l.opts.Overrides, want) || !reflect.DeepEqual(l.dopts.Config.Overrides, want) {
		t.Errorf("-override: campaign %v, workers %v, want %v", l.opts.Overrides, l.dopts.Config.Overrides, want)
	}
	if l.dopts.Config.HeartbeatMS != 0 {
		t.Errorf("-heartbeat 0: workers beat every %d ms, want heartbeats off", l.dopts.Config.HeartbeatMS)
	}
	if q := mustPrepare(t, Spec{App: "miniflink", Sched: "lpt", Seq: "sprt", Select: "all"}); q.opts.QuarantineThreshold != math.MaxInt32 {
		t.Errorf("quarantine 0 built threshold %d, want never", q.opts.QuarantineThreshold)
	}
}

// TestGoldenDigests pins the flags digest of the default campaign and of
// CI's serve-smoke flag set to the strings the commit before Spec
// produced, so existing ledgers and coverage indexes stay comparable.
func TestGoldenDigests(t *testing.T) {
	if got := DefaultSpec().Digest(); got != "dedaaa7e9340ad93" {
		t.Errorf("default digest = %s", got)
	}
	s := DefaultSpec()
	err := bound(&s).Parse(strings.Fields("-app minihdfs -no-pool -params dfs.bytes-per-checksum,dfs.checksum.type " +
		"-tests TestWriteRead,TestFsck,TestMkdirList -seed 7 -quarantine 0 -workers 2"))
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Digest(); got != "e902018c3d62006a" {
		t.Errorf("serve-smoke digest = %s", got)
	}
}

func TestDecodeOmittedIsDefaultExplicitZeroIsZero(t *testing.T) {
	got, err := DecodeSpec(strings.NewReader(`{}`))
	if err != nil || !reflect.DeepEqual(got, DefaultSpec()) {
		t.Errorf("empty body decoded to %+v (%v), want DefaultSpec", got, err)
	}
	got, err = DecodeSpec(strings.NewReader(`{"app": "minihdfs", "stream": false, "quarantine": 0, "heartbeat_ms": 0}`))
	if err != nil {
		t.Fatal(err)
	}
	want := DefaultSpec()
	want.App, want.Stream, want.Quarantine, want.Heartbeat = "minihdfs", false, 0, 0
	if !reflect.DeepEqual(got, want) {
		t.Errorf("explicit zeros decoded to %+v, want %+v", got, want)
	}
}

func TestValidateRejectsBadSettings(t *testing.T) {
	for _, arg := range []string{"-sched=random", "-seq=bayes", "-select=some", "-override=novalue", "-override==3"} {
		s := DefaultSpec()
		if err := bound(&s).Parse([]string{arg}); err != nil {
			t.Fatal(err)
		}
		if s.Validate() == nil {
			t.Errorf("%s validated", arg)
		}
	}
	if err := DefaultSpec().Validate(); err != nil {
		t.Error(err)
	}
}

// TestReadmeSpecTable keeps README's table of the REST body generated:
// one row per Spec field with its JSON key and default, its flag and
// default, and whether it is in the flags digest. On a mismatch the
// expected table is printed.
func TestReadmeSpecTable(t *testing.T) {
	flags := specFlags(t)
	def := DefaultSpec()
	body, _ := json.Marshal(def)
	var jsonDefaults map[string]json.RawMessage
	if err := json.Unmarshal(body, &jsonDefaults); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	b.WriteString("| JSON field | default | flag | default | in flags digest |\n|---|---|---|---|---|\n")
	for i, n := 0, reflect.TypeOf(def).NumField(); i < n; i++ {
		sf := reflect.TypeOf(def).Field(i)
		f := flags[sf.Name]
		changed := def
		if err := bound(&changed).Set(f.Name, altValue(t, f)); err != nil {
			t.Fatal(err)
		}
		in := "yes"
		if changed.Digest() == def.Digest() {
			in = "no"
		}
		// DefValue of a flag bound to DefaultSpec is the default itself.
		d := def
		key := sf.Tag.Get("json")
		flagDefault := "(empty)"
		if v := bound(&d).Lookup(f.Name).DefValue; v != "" {
			flagDefault = "`" + v + "`"
		}
		fmt.Fprintf(&b, "| `%s` | `%s` | `-%s` | %s | %s |\n", key, jsonDefaults[key], f.Name, flagDefault, in)
	}
	readme, err := os.ReadFile("../../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(readme), b.String()) {
		t.Errorf("README.md does not contain the Spec table generated from DefaultSpec():\n%s", b.String())
	}
}
