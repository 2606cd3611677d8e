package ihr

import (
	"bytes"
	"net/netip"
	"testing"
	"time"

	"manrsmeter/internal/astopo"
	"manrsmeter/internal/bgp/mrt"
	"manrsmeter/internal/rov"
)

// writeDump builds a two-peer MRT archive over the topo() graph:
// AS5 announces 10.5.0.0/16, observed from vantage 2 (path 2,1,3,5) and
// vantage 6 (path 6,4,1,3,5).
func writeDump(t *testing.T) *mrt.Dump {
	t.Helper()
	ts := time.Date(2022, 5, 1, 0, 0, 0, 0, time.UTC)
	var buf bytes.Buffer
	w := mrt.NewWriter(&buf, ts)
	peers := []mrt.Peer{
		{BGPID: [4]byte{2, 2, 2, 2}, Addr: netip.MustParseAddr("10.0.0.2"), ASN: 2},
		{BGPID: [4]byte{6, 6, 6, 6}, Addr: netip.MustParseAddr("10.0.0.6"), ASN: 6},
	}
	if err := w.WritePeerIndexTable([4]byte{9, 9, 9, 9}, "test", peers); err != nil {
		t.Fatal(err)
	}
	err := w.WriteRIB(pfx("10.5.0.0/16"), []mrt.RIBEntry{
		{PeerIndex: 0, OriginatedTime: ts, Path: []uint32{2, 1, 3, 5}},
		{PeerIndex: 1, OriginatedTime: ts, Path: []uint32{6, 4, 1, 3, 5}},
	})
	if err != nil {
		t.Fatal(err)
	}
	// A MOAS prefix: two origins for the same prefix.
	err = w.WriteRIB(pfx("10.9.0.0/16"), []mrt.RIBEntry{
		{PeerIndex: 0, OriginatedTime: ts, Path: []uint32{2, 1, 3, 5}},
		{PeerIndex: 1, OriginatedTime: ts, Path: []uint32{6, 4, 2, 6}}, // origin 6
	})
	if err != nil {
		t.Fatal(err)
	}
	dump, err := mrt.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	return dump
}

func TestFromMRT(t *testing.T) {
	g := topo(t)
	dump := writeDump(t)
	rpkiIx := mustIndex(t, rov.Authorization{Prefix: pfx("10.5.0.0/16"), ASN: 5, MaxLength: 16})

	ds, err := FromMRT(dump, g, rpkiIx, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Three prefix-origin pairs: (10.5/16, 5), (10.9/16, 5), (10.9/16, 6).
	if len(ds.PrefixOrigins) != 3 {
		t.Fatalf("prefix origins = %+v", ds.PrefixOrigins)
	}
	byOrigin := map[uint32][]PrefixOrigin{}
	for _, po := range ds.PrefixOrigins {
		byOrigin[po.Origin] = append(byOrigin[po.Origin], po)
	}
	if len(byOrigin[5]) != 2 || len(byOrigin[6]) != 1 {
		t.Errorf("MOAS split wrong: %+v", ds.PrefixOrigins)
	}
	if byOrigin[5][0].RPKI != rov.Valid {
		t.Errorf("10.5/16 AS5 RPKI = %v", byOrigin[5][0].RPKI)
	}

	// Transit rows for (10.5/16, 5): ASes 1,3 on both paths (hegemony 1),
	// AS4 on one. FromCustomer comes from the as-rel graph.
	var t3, t1, t4 *TransitRow
	for i := range ds.Transits {
		tr := &ds.Transits[i]
		if tr.Prefix == pfx("10.5.0.0/16") && tr.Origin == 5 {
			switch tr.Transit {
			case 3:
				t3 = tr
			case 1:
				t1 = tr
			case 4:
				t4 = tr
			}
		}
	}
	if t3 == nil || t1 == nil || t4 == nil {
		t.Fatalf("missing transits: %+v", ds.Transits)
	}
	if t3.Hegemony != 1 || t1.Hegemony != 1 || t4.Hegemony != 0.5 {
		t.Errorf("hegemony: t3=%g t1=%g t4=%g", t3.Hegemony, t1.Hegemony, t4.Hegemony)
	}
	if !t3.FromCustomer { // 3 learned from customer 5
		t.Error("AS3 should be customer-learned")
	}
	if !t1.FromCustomer { // 1 learned from customer 3
		t.Error("AS1 should be customer-learned")
	}
	if t4.FromCustomer { // 4 learned from provider 1
		t.Error("AS4 learned from its provider")
	}
	// Visibility counts vantage paths.
	if ds.Visibility.Count(origKey("10.5.0.0/16", 5)) != 2 {
		t.Errorf("visibility = %v", ds.Visibility)
	}
}

func TestFromMRTNilInputs(t *testing.T) {
	if _, err := FromMRT(nil, nil, nil, nil, 0); err == nil {
		t.Error("nil dump should fail")
	}
	dump := writeDump(t)
	ds, err := FromMRT(dump, nil, nil, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, po := range ds.PrefixOrigins {
		if po.RPKI != rov.NotFound || po.IRR != rov.NotFound {
			t.Errorf("nil indexes should classify NotFound: %+v", po)
		}
	}
	for _, tr := range ds.Transits {
		if tr.FromCustomer {
			t.Error("nil graph cannot attribute customer-learned routes")
		}
	}
}

func origKey(p string, origin uint32) astopo.Origination {
	return astopo.Origination{Prefix: pfx(p), Origin: origin}
}

// The IHR CSVs are written in the layout the Internet Health Report's
// API returns, one header line and one row per dataset row.
func TestDatasetCSVLayout(t *testing.T) {
	ds := &Dataset{
		PrefixOrigins: []PrefixOrigin{{Prefix: pfx("10.5.0.0/16"), Origin: 5, RPKI: rov.Valid, IRR: rov.InvalidASN}},
		Transits: []TransitRow{{Prefix: pfx("10.5.0.0/16"), Origin: 5, Transit: 3, Hegemony: 2.0 / 3,
			RPKI: rov.Valid, IRR: rov.InvalidASN, FromCustomer: true}},
	}
	var po, tr bytes.Buffer
	if err := ds.WritePrefixOriginCSV(&po); err != nil {
		t.Fatal(err)
	}
	if err := ds.WriteTransitCSV(&tr); err != nil {
		t.Fatal(err)
	}
	if want := "prefix,origin_asn,rpki_status,irr_status\n10.5.0.0/16,5,Valid,Invalid\n"; po.String() != want {
		t.Errorf("prefix-origin CSV\n%s\nwant\n%s", po.String(), want)
	}
	if want := "prefix,origin_asn,transit_asn,hegemony,rpki_status,irr_status,from_customer\n" +
		"10.5.0.0/16,5,3,0.666667,Valid,Invalid,true\n"; tr.String() != want {
		t.Errorf("transit CSV\n%s\nwant\n%s", tr.String(), want)
	}
}
