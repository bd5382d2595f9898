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

	"zebraconf/internal/apps"
	"zebraconf/internal/core/agent"
	"zebraconf/internal/core/dist"
)

// altStrings gives a legal non-default value for every flag whose
// alternative cannot be derived from its type.
var altStrings = map[string]string{
	"app":      "miniyarn",
	"params":   "flink.checkpoint.interval,flink.task.slots",
	"tests":    "TestCheckpointBarrier",
	"sched":    "fifo",
	"seq":      "fixed",
	"select":   "all",
	"override": "flink.task.slots=3",
}

// observationOnly lists the fields that must not move the flags digest;
// notInDigest in spec.go argues each one out. Every other field must.
var observationOnly = map[string]bool{"App": true, "Overrides": true}

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

// TestDriftedSettingsReachTheEngine pins the three settings that used to
// be lost or rewritten between `-mode submit` and the served campaign, and
// the heartbeat a served campaign's workers beat at.
func TestDriftedSettingsReachTheEngine(t *testing.T) {
	s := baseSpec()
	err := bound(&s).Parse([]string{"-select=all", "-thread-only", "-override=flink.task.slots=3"})
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
	if l.dopts.Config.HeartbeatMS != dist.DefaultHeartbeatMS {
		t.Errorf("workers beat every %d ms, want %d", l.dopts.Config.HeartbeatMS, dist.DefaultHeartbeatMS)
	}
	if q := mustPrepare(t, Spec{App: "miniflink", Sched: "lpt", Seq: "sprt", Select: "all"}); q.opts.QuarantineThreshold != math.MaxInt32 {
		t.Errorf("quarantine 0 built threshold %d, want never", q.opts.QuarantineThreshold)
	}
}

// TestGoldenDigests pins the flags digest of the default campaign and of
// CI's serve-smoke flag set, so existing ledgers and coverage indexes stay
// comparable: a change here makes every index written before it stale.
func TestGoldenDigests(t *testing.T) {
	if got := DefaultSpec().Digest(); got != "4090d2079bef6fc0" {
		t.Errorf("default digest = %s", got)
	}
	s := DefaultSpec()
	err := bound(&s).Parse(strings.Fields("-app minihdfs -no-pool -params dfs.bytes-per-checksum,dfs.checksum.type " +
		"-tests TestWriteRead,TestFsck,TestMkdirList -seed 7 -quarantine 0 -workers 2"))
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Digest(); got != "11ff040db2cc5f84" {
		t.Errorf("serve-smoke digest = %s", got)
	}
}

func TestDecodeOmittedIsDefaultExplicitZeroIsZero(t *testing.T) {
	got, err := DecodeSpec(strings.NewReader(`{}`))
	if err != nil || !reflect.DeepEqual(got, DefaultSpec()) {
		t.Errorf("empty body decoded to %+v (%v), want DefaultSpec", got, err)
	}
	got, err = DecodeSpec(strings.NewReader(`{"app": "minihdfs", "stream": false, "quarantine": 0}`))
	if err != nil {
		t.Fatal(err)
	}
	want := DefaultSpec()
	want.App, want.Stream, want.Quarantine = "minihdfs", false, 0
	if !reflect.DeepEqual(got, want) {
		t.Errorf("explicit zeros decoded to %+v, want %+v", got, want)
	}
}

// TestDecodeIsAsStrictAsTheFlags: a body's lists follow the flag form's
// trim and drop-empty rule, and a field the flags do not have, or bytes
// after the object, are refused rather than dropped.
func TestDecodeIsAsStrictAsTheFlags(t *testing.T) {
	got, err := DecodeSpec(strings.NewReader(`{"params": [" dfs.replication", "", "a ,b"], "tests": []}`))
	if err != nil {
		t.Fatal(err)
	}
	flagged := DefaultSpec()
	if err := bound(&flagged).Parse([]string{"-params= dfs.replication,,a ,b", "-tests="}); err != nil {
		t.Fatal(err)
	}
	if want := (List{"dfs.replication", "a", "b"}); !reflect.DeepEqual(got.Params, want) || !reflect.DeepEqual(got, flagged) {
		t.Errorf("body decoded to params %q tests %q, the flags to %q %q", got.Params, got.Tests, flagged.Params, flagged.Tests)
	}
	for body, want := range map[string]string{
		`{"params": ["dfs.replication"], "bogus_field": 1}`: `unknown field "bogus_field"`,
		`{"heartbeat_ms": 0}`:                               `unknown field "heartbeat_ms"`,
		`{"seed": 1} {"seed": 2}`:                           "trailing data",
		`{"seed": 1}]`:                                      "trailing data",
	} {
		if _, err := DecodeSpec(strings.NewReader(body)); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: error %v, want one naming %s", body, err, want)
		}
	}
	if _, err := DecodeSpec(strings.NewReader("{\"seed\": 1}\n\t ")); err != nil {
		t.Errorf("trailing white space refused: %v", err)
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

// FuzzDecodeSpec holds the REST body decoder to the flags it mirrors: a
// body is refused, or it decodes to a Spec that survives a JSON round
// trip, and a Spec that validates is given back by its flag form —
// ExecFlags plus -app and -override, parsed onto DefaultSpec — so what a
// client posts is what the same command line would run.
func FuzzDecodeSpec(f *testing.F) {
	for _, body := range []string{
		`{}`,
		`{"app": "minihdfs", "stream": false, "quarantine": 0}`,
		`{"params": [" dfs.replication", "", "a ,b"], "tests": []}`,
		`{"params": ["dfs.replication"], "bogus_field": 1}`,
		`{"heartbeat_ms": 0}`,
		`{"seed": 1} {"seed": 2}`,
		// README "Campaign service": -mode submit -app minihdfs -seed 7 -workers 2.
		`{"app": "minihdfs", "seed": 7, "workers": 2}`,
		`{"app": "miniflink", "override": "flink.task.slots=3", "select": "all", "seq_margin": 0.25, "evidence_max": -1}`,
	} {
		f.Add(body)
	}
	f.Fuzz(func(t *testing.T, body string) {
		s, err := DecodeSpec(strings.NewReader(body))
		if err != nil {
			return
		}
		b, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if back, err := DecodeSpec(bytes.NewReader(b)); err != nil || !reflect.DeepEqual(back, s) {
			t.Fatalf("%s decoded to %+v, which posts as %s and decodes to %+v (%v)", body, s, b, back, err)
		}
		if s.Validate() != nil {
			return
		}
		args := []string{"-app=" + s.App, "-override=" + s.Overrides}
		for name, v := range s.ExecFlags() {
			args = append(args, "-"+name+"="+v)
		}
		flagged := DefaultSpec()
		if err := bound(&flagged).Parse(args); err != nil || !reflect.DeepEqual(flagged, s) {
			t.Fatalf("%s decoded to %+v, its flags %q parse to %+v (%v)", body, s, args, flagged, err)
		}
	})
}
