package cli

import (
	"strings"
	"testing"

	"rmac/internal/experiment"
)

func TestParseProtocol(t *testing.T) {
	cases := map[string]experiment.Protocol{
		"rmac": experiment.RMAC, "RMAC": experiment.RMAC,
		"bmmm": experiment.BMMM, "bmw": experiment.BMW,
		"lbp": experiment.LBP, "mx": experiment.MX, "802.11MX": experiment.MX,
		" rmac ": experiment.RMAC,
	}
	for in, want := range cases {
		got, err := ParseProtocol(in)
		if err != nil || got != want {
			t.Fatalf("ParseProtocol(%q) = %v, %v", in, got, err)
		}
	}
	_, err := ParseProtocol("ethernet")
	if err == nil {
		t.Fatal("bad protocol accepted")
	}
	// Round trip over the protocol table: every flag name of every
	// protocol parses back to it, in any case, and the help and error
	// text built from the table name each protocol's canonical flag.
	help := ProtocolNames(", ")
	for _, p := range experiment.Protocols {
		flags := p.FlagNames()
		if len(flags) == 0 {
			t.Fatalf("%v has no flag names", p)
		}
		for _, f := range flags {
			for _, in := range []string{f, strings.ToUpper(f)} {
				if got, err := ParseProtocol(in); err != nil || got != p {
					t.Errorf("ParseProtocol(%q) = %v, %v; want %v", in, got, err, p)
				}
			}
		}
		for _, text := range []string{help, ProtocolNames(","), err.Error()} {
			if !strings.Contains(text, flags[0]) {
				t.Errorf("%q does not list %s", text, flags[0])
			}
		}
	}
}

func TestParseProtocols(t *testing.T) {
	got, err := ParseProtocols("rmac,bmmm,mx")
	if err != nil || len(got) != 3 || got[2] != experiment.MX {
		t.Fatalf("= %v, %v", got, err)
	}
	if _, err := ParseProtocols("rmac,nope"); err == nil {
		t.Fatal("bad list accepted")
	}
}

func TestParseScenarios(t *testing.T) {
	all, err := ParseScenarios("all")
	if err != nil || len(all) != 3 {
		t.Fatalf("all = %v, %v", all, err)
	}
	// "all" returns a copy, not the shared slice.
	all[0] = experiment.Speed2
	if experiment.Scenarios[0] != experiment.Stationary {
		t.Fatal("ParseScenarios aliases the package slice")
	}
	got, err := ParseScenarios("static,speed2")
	if err != nil || len(got) != 2 || got[0] != experiment.Stationary || got[1] != experiment.Speed2 {
		t.Fatalf("= %v, %v", got, err)
	}
	if _, err := ParseScenarios("speed3"); err == nil {
		t.Fatal("bad scenario accepted")
	}
}

func TestParseRates(t *testing.T) {
	got, err := ParseRates("5, 10,120")
	if err != nil || len(got) != 3 || got[2] != 120 {
		t.Fatalf("= %v, %v", got, err)
	}
	for _, bad := range []string{"0", "-5", "abc", "5,,10"} {
		if _, err := ParseRates(bad); err == nil {
			t.Fatalf("ParseRates(%q) accepted", bad)
		}
	}
}
