package core

import (
	"reflect"
	"regexp"
	"sort"
	"testing"
)

// The one section table: unique dash-case names, the report in the
// paper's order, the query routes on the sections cheap enough to serve,
// the sections the on-disk archives support, and the extension marker on
// exactly the beyond-the-paper experiments.
func TestSectionTable(t *testing.T) {
	dashCase := regexp.MustCompile(`^[a-z0-9]+(-[a-z0-9]+)*$`)
	seen := map[string]bool{}
	var report, served, fromFiles []string
	byName := map[string]Section{}
	for _, sec := range Sections {
		if !dashCase.MatchString(sec.Name) {
			t.Errorf("section name %q is not dash-case", sec.Name)
		}
		if seen[sec.Name] {
			t.Errorf("section name %q appears twice", sec.Name)
		}
		seen[sec.Name] = true
		byName[sec.Name] = sec
		if sec.Title == "" || sec.Render == nil || sec.Offer&Everywhere == 0 {
			t.Errorf("section %q: title %q, render set %v, offer %d", sec.Name, sec.Title, sec.Render != nil, sec.Offer)
		}
		if sec.Offer&InReport != 0 {
			report = append(report, sec.Name)
		}
		if sec.Offer&Served != 0 {
			served = append(served, sec.Name)
		}
		if sec.Offer&FromFiles != 0 {
			fromFiles = append(fromFiles, sec.Name)
		}
	}

	if want := []string{
		"fig2-growth", "fig4-by-rir", "finding-70", "fig5a-rpki-origination",
		"fig5b-irr-origination", "action4", "table1-case-studies", "stability",
		"fig6-saturation", "fig7a-rpki-propagation", "fig7b-irr-propagation",
		"fig8-unconformant", "table2-action1", "fig9-preference", "hijack-impact",
		"action3", "route-leaks",
	}; !reflect.DeepEqual(report, want) {
		t.Errorf("report sections\n got %v\nwant %v", report, want)
	}

	sort.Strings(served)
	if want := []string{
		"action3", "action4", "fig2-growth", "fig4-by-rir", "fig5a-rpki-origination",
		"fig5b-irr-origination", "fig6-saturation", "fig7a-rpki-propagation",
		"fig7b-irr-propagation", "fig8-unconformant", "fig9-preference",
		"finding-70", "scenarios", "table2-action1",
	}; !reflect.DeepEqual(served, want) {
		t.Errorf("served sections\n got %v\nwant %v", served, want)
	}

	for _, name := range []string{"table1-case-studies", "stability", "hijack-impact", "route-leaks"} {
		if byName[name].Offer&Everywhere != InReport {
			t.Errorf("%s: offer %d, want report only", name, byName[name].Offer)
		}
	}

	// The rest need each AS's RIR (fig4-by-rir), dated archives
	// (stability, fig6-saturation) or the simulated world (hijack-impact,
	// route-leaks, scenarios).
	if want := []string{
		"fig2-growth", "finding-70", "fig5a-rpki-origination", "fig5b-irr-origination",
		"action4", "table1-case-studies", "fig7a-rpki-propagation", "fig7b-irr-propagation",
		"fig8-unconformant", "table2-action1", "fig9-preference", "action3",
	}; !reflect.DeepEqual(fromFiles, want) {
		t.Errorf("sections from files\n got %v\nwant %v", fromFiles, want)
	}

	var extensions []string
	for _, sec := range Sections {
		if sec.Extension != "" {
			extensions = append(extensions, sec.Name)
		}
	}
	if want := []string{"hijack-impact", "action3", "route-leaks"}; !reflect.DeepEqual(extensions, want) {
		t.Errorf("extension sections %v, want %v", extensions, want)
	}
}
