package agent_test

import (
	"testing"

	"zebraconf/internal/confkit"
	"zebraconf/internal/core/agent"
)

// FuzzTypedGetters checks that an assigned value is indistinguishable from
// a written one through the typed getters: read through an agent that
// assigns it to the reading entity — the unit test, and a node in its init
// window — GetInt, GetBool and GetTicks return what they return on a bare
// Conf where the value was Set, whatever the object stores and whatever
// the schema's default. So an unparseable value falls back to the default
// exactly as an unparseable write does, and nothing panics.
func FuzzTypedGetters(f *testing.F) {
	seeds := []string{"fasle", "false", "FALSE", "0", "1", "", " 7", "-1", "9223372036854775808", "0x10"}
	for i, v := range seeds {
		// Each seed is the assigned value once, the stored value once and
		// the default once.
		f.Add(seeds[(i+len(seeds)-1)%len(seeds)], v, seeds[(i+len(seeds)-2)%len(seeds)])
	}
	f.Fuzz(func(t *testing.T, stored, assigned, def string) {
		const param = "p"
		schema := confkit.NewRegistry().Register(confkit.Param{Name: param, Kind: confkit.String, Default: def})

		written := confkit.NewRuntime(schema).NewConf()
		written.Set(param, assigned)

		rt := confkit.NewRuntime(schema)
		rt.SetHooks(agent.New(agent.Options{
			Assign: map[agent.Key]string{
				{NodeType: agent.UnitTestEntity, Param: param}: assigned,
				{NodeType: "N", Param: param}:                  assigned,
			},
			Identity: func() uint64 { return 1 },
		}))
		test := rt.NewConf() // Rule 1.2: the unit test's
		test.Set(param, stored)
		rt.StartInit("N")
		node := rt.NewConf() // Rule 1.1: node N[0]'s
		node.Set(param, stored)
		defer rt.StopInit()

		for _, c := range []struct {
			entity string
			conf   *confkit.Conf
		}{{agent.UnitTestEntity, test}, {"N", node}} {
			if got, want := c.conf.GetInt(param), written.GetInt(param); got != want {
				t.Errorf("%s: GetInt = %d, want %d as written", c.entity, got, want)
			}
			if got, want := c.conf.GetBool(param), written.GetBool(param); got != want {
				t.Errorf("%s: GetBool = %v, want %v as written", c.entity, got, want)
			}
			if got, want := c.conf.GetTicks(param), written.GetTicks(param); got != want {
				t.Errorf("%s: GetTicks = %d, want %d as written", c.entity, got, want)
			}
		}
	})
}
