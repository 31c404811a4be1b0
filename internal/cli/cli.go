// Package cli holds the flag-value parsers shared by the command-line
// tools (rmacsim, rmacfigs): protocol, scenario and rate lists.
package cli

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"rmac/internal/experiment"
)

// ParseProtocol maps a flag value (any of a protocol's flag names, in any
// case) to a Protocol.
func ParseProtocol(s string) (experiment.Protocol, error) {
	name := strings.ToLower(strings.TrimSpace(s))
	for _, p := range experiment.Protocols {
		if slices.Contains(p.FlagNames(), name) {
			return p, nil
		}
	}
	return 0, fmt.Errorf("unknown protocol %q (want %s)", s, ProtocolNames(", "))
}

// ProtocolNames joins every protocol's canonical flag name with sep, for
// help and error text.
func ProtocolNames(sep string) string {
	names := make([]string, len(experiment.Protocols))
	for i, p := range experiment.Protocols {
		names[i] = p.FlagNames()[0]
	}
	return strings.Join(names, sep)
}

// ParseProtocols parses a comma-separated protocol list.
func ParseProtocols(spec string) ([]experiment.Protocol, error) {
	var out []experiment.Protocol
	for _, s := range strings.Split(spec, ",") {
		p, err := ParseProtocol(s)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}

// ParseScenario maps a flag value to a Scenario.
func ParseScenario(s string) (experiment.Scenario, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "stationary", "static":
		return experiment.Stationary, nil
	case "speed1":
		return experiment.Speed1, nil
	case "speed2":
		return experiment.Speed2, nil
	}
	return 0, fmt.Errorf("unknown scenario %q (want stationary, speed1, speed2)", s)
}

// ParseScenarios parses a comma-separated scenario list; "all" selects
// the paper's three.
func ParseScenarios(spec string) ([]experiment.Scenario, error) {
	if strings.TrimSpace(spec) == "all" {
		return append([]experiment.Scenario(nil), experiment.Scenarios...), nil
	}
	var out []experiment.Scenario
	for _, s := range strings.Split(spec, ",") {
		sc, err := ParseScenario(s)
		if err != nil {
			return nil, err
		}
		out = append(out, sc)
	}
	return out, nil
}

// ParseRates parses a comma-separated list of positive packet rates.
func ParseRates(spec string) ([]float64, error) {
	var out []float64
	for _, s := range strings.Split(spec, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("bad rate %q (want a positive number)", s)
		}
		out = append(out, v)
	}
	return out, nil
}
