// The world's on-disk form: one date of a world in the formats the
// paper's pipeline consumes, and the loader that reads such a directory
// (written here, or assembled from real archives in the same formats)
// back into a World.

package synth

import (
	"bufio"
	"context"
	"fmt"
	"hash"
	"hash/fnv"
	"io"
	"net/netip"
	"os"
	"path/filepath"
	"strings"
	"time"

	"manrsmeter/internal/astopo"
	"manrsmeter/internal/bgp/mrt"
	"manrsmeter/internal/ihr"
	"manrsmeter/internal/irr"
	"manrsmeter/internal/manrs"
	"manrsmeter/internal/netx"
	"manrsmeter/internal/peeringdb"
	"manrsmeter/internal/rov"
	"manrsmeter/internal/rpki"
	"manrsmeter/internal/rpsl"
)

// The files of a world's directory. Every IRR database is one more,
// named irr-NAME.db.
const (
	fileASRel        = "as-rel.txt"             // CAIDA as-rel
	fileAS2Org       = "as2org.txt"             // CAIDA as2org
	filePrefix2AS    = "prefix2as.txt"          // CAIDA prefix2as
	fileVRPs         = "vrps.csv"               // RIPE validated-ROA archive
	fileParticipants = "manrs-participants.csv" // MANRS participant list
	filePeeringDB    = "peeringdb.json"         // PeeringDB net records
	fileRIB          = "rib.mrt"                // RouteViews-style MRT RIB
	// The IHR datasets are written for their consumers; LoadFiles
	// derives them from the RIB instead.
	filePrefixOrigins = "ihr-prefix-origins.csv"
	fileTransits      = "ihr-transits.csv"
)

// WriteFiles writes the world as of t into dir, creating it if needed,
// and calls wrote with each file's path once the file is complete. It
// rewinds the graph to t (SetSnapshot), so nothing else may read the
// graph meanwhile. A done ctx stops it between files and inside the
// relying-party run and the dataset build; no file is left half-written
// by the cancellation itself.
func (w *World) WriteFiles(ctx context.Context, dir string, t time.Time, wrote func(path string)) error {
	w.SetSnapshot(t)
	view, err := w.At(ctx, t, 0)
	if err != nil {
		return fmt.Errorf("synth: relying party: %w", err)
	}
	ds, err := view.Dataset(ctx, 0)
	if err != nil {
		return fmt.Errorf("synth: build IHR dataset: %w", err)
	}
	type file struct {
		name  string
		write func(io.Writer) error
	}
	files := []file{
		{fileASRel, w.Graph.WriteASRel},
		{fileAS2Org, w.Graph.WriteAS2Org},
		{filePrefix2AS, w.Graph.WritePrefix2AS},
		{fileVRPs, func(f io.Writer) error { return rpki.WriteVRPCSV(f, view.VRPs) }},
	}
	for _, db := range w.IRRRegistry.Databases() {
		files = append(files, file{"irr-" + db.Name + ".db", db.Dump})
	}
	files = append(files,
		file{fileParticipants, func(f io.Writer) error { return w.MANRS.WriteCSV(f, t) }},
		file{filePeeringDB, w.PeeringDB.WriteJSON},
		file{filePrefixOrigins, ds.WritePrefixOriginCSV},
		file{fileTransits, ds.WriteTransitCSV},
		file{fileRIB, func(f io.Writer) error { return w.writeRIB(f, view) }},
	)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, file := range files {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("synth: canceled before %s: %w", file.name, err)
		}
		path := filepath.Join(dir, file.name)
		if err := writeFile(path, file.write); err != nil {
			return err
		}
		if wrote != nil {
			wrote(path)
		}
	}
	return nil
}

func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(f, 1<<16)
	if err := write(bw); err != nil {
		f.Close()
		return fmt.Errorf("synth: write %s: %w", path, err)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("synth: write %s: %w", path, err)
	}
	return f.Close()
}

// writeRIB dumps the simulated collectors' view of the view's date as
// one TABLE_DUMP_V2 RIB: per origination active at that date, one RIB
// entry per vantage point that sees it, as RouteViews archives look; an
// origination no vantage point sees is left out. Each origination is
// flooded on its own, with its own prefix, rather than read off the
// dataset, so the file does not inherit the dataset build's grouping of
// originations into shared floods, nor any pair that build drops. It
// still shares two stages with the build: the propagator (astopo) and
// the import filters (ihr.PolicyFilter).
func (w *World) writeRIB(f io.Writer, view *View) error {
	filterFor := ihr.PolicyFilter(w.Graph, w.Policies, view.RPKI, view.IRR)
	mw := mrt.NewWriter(f, view.Date)
	peers := make([]mrt.Peer, len(w.VantagePoints))
	csr := w.Graph.CSR()
	var vpIdx []int32   // vantage points present in the topology
	var vpPeer []uint16 // and their rows in the peer index table
	for i, asn := range w.VantagePoints {
		if vi, ok := csr.Intern.Index(asn); ok {
			vpIdx = append(vpIdx, vi)
			vpPeer = append(vpPeer, uint16(i))
		}
		peers[i] = mrt.Peer{
			BGPID: [4]byte{10, 0, byte(i >> 8), byte(i)},
			Addr:  netip.AddrFrom4([4]byte{10, 0, byte(i >> 8), byte(i)}),
			ASN:   asn,
		}
	}
	if err := mw.WritePeerIndexTable([4]byte{192, 0, 2, 1}, "manrsmeter-rib", peers); err != nil {
		return err
	}
	// Only the vantage points are read, so the floods are restricted to
	// their need-set.
	prop := astopo.NewCSRPropagator(csr)
	need := csr.NeedSet(vpIdx)
	var entries []mrt.RIBEntry
	for _, og := range w.OriginationsAt(view.Date) {
		tree := prop.PropagateTo(og.Prefix, og.Origin, filterFor(og.Prefix, og.Origin), need)
		entries = entries[:0]
		for i, vi := range vpIdx {
			path := tree.AppendPathAt(nil, vi)
			if path == nil {
				continue
			}
			entries = append(entries, mrt.RIBEntry{
				PeerIndex:      vpPeer[i],
				OriginatedTime: view.Date,
				Path:           path,
			})
		}
		if len(entries) == 0 {
			continue
		}
		if err := mw.WriteRIB(og.Prefix, entries); err != nil {
			return err
		}
	}
	return nil
}

// LoadFiles reads a directory in WriteFiles' formats into a world with
// a single date, the RIB dump's:
//   - the graph from as2org.txt, as-rel.txt and prefix2as.txt;
//   - the participant list, the PeeringDB records, and one IRR database
//     per irr-NAME.db;
//   - and, installed with Adopt, the date's view: the VRPs of vrps.csv,
//     the IRR databases' routes, and the dataset ihr.FromMRT derives
//     from rib.mrt, whose peers are the vantage points.
//
// The IHR CSVs are not read. The world has no RPKI repository, no trust
// anchors, no filtering policies and no AS's RIR, so nothing that needs
// them runs on it: the relying party at another date, the simulations,
// the by-RIR split. Every file is required, and a malformed one is an
// error naming the file and the line (the record, in rib.mrt).
func LoadFiles(dir string) (*World, error) {
	h := fnv.New64a() // over every file's bytes: the world's fingerprint
	read := func(name string, fn func(io.Reader) error) error {
		return readFile(filepath.Join(dir, name), h, fn)
	}
	g := astopo.NewGraph()
	reg := manrs.NewRegistry()
	contacts := peeringdb.NewRegistry()
	var vrps []rpki.VRP
	var dump *mrt.Dump
	for _, file := range []struct {
		name string
		read func(io.Reader) error
	}{
		// as2org first, so that every AS is created with its organization.
		{fileAS2Org, g.ReadAS2Org},
		{fileASRel, g.ReadASRel},
		{filePrefix2AS, g.ReadPrefix2AS},
		{fileParticipants, reg.ReadCSV},
		{filePeeringDB, func(r io.Reader) (err error) { _, err = contacts.ReadJSON(r); return err }},
		{fileVRPs, func(r io.Reader) (err error) { vrps, err = rpki.ReadVRPCSV(r); return err }},
		{fileRIB, func(r io.Reader) (err error) { dump, err = mrt.NewReader(r).ReadAll(); return err }},
	} {
		if err := read(file.name, file.read); err != nil {
			return nil, err
		}
	}
	irrFiles, err := filepath.Glob(filepath.Join(dir, "irr-*.db"))
	if err != nil {
		return nil, err
	}
	if len(irrFiles) == 0 {
		return nil, fmt.Errorf("synth: %s holds no IRR dump (irr-NAME.db)", dir)
	}
	registry := irr.NewRegistry()
	for _, path := range irrFiles {
		db := irr.NewDatabase(strings.TrimSuffix(strings.TrimPrefix(filepath.Base(path), "irr-"), ".db"))
		if err := readFile(path, h, func(r io.Reader) error { return loadIRR(db, r) }); err != nil {
			return nil, err
		}
		registry.AddDatabase(db)
	}
	irrIx, err := registry.Index()
	if err != nil {
		return nil, fmt.Errorf("synth: %s: %w", dir, err)
	}

	asOf := dump.Timestamp
	if asOf.Year() < studyStartYear || len(dump.Records) == 0 {
		return nil, fmt.Errorf("synth: %s: a RIB of %d records dated %s, want one with records inside the study window (from %d)",
			filepath.Join(dir, fileRIB), len(dump.Records), asOf.Format(time.DateOnly), studyStartYear)
	}
	w := &World{
		Config:        Config{StartYear: studyStartYear, EndYear: asOf.Year()},
		Graph:         g,
		MANRS:         reg,
		IRRRegistry:   registry,
		OrgASNs:       make(map[string][]uint32),
		PeeringDB:     contacts,
		allPrefixes:   make(map[uint32][]netx.Prefix),
		asOf:          asOf,
		VantagePoints: make([]uint32, len(dump.Peers)),
		fingerprint:   fmt.Sprintf("f%016x", h.Sum64()),
	}
	for i, p := range dump.Peers {
		w.VantagePoints[i] = p.ASN
	}
	for _, asn := range g.ASNs() {
		a := g.AS(asn)
		w.OrgASNs[a.OrgID] = append(w.OrgASNs[a.OrgID], asn)
		if len(a.Prefixes) > 0 {
			w.allPrefixes[asn] = a.Prefixes
		}
	}
	auths := make([]rov.Authorization, len(vrps))
	for i, v := range vrps {
		auths[i] = v.Authorization()
	}
	view, err := w.Adopt(asOf, auths, irrIx.All(), nil)
	if err != nil {
		return nil, fmt.Errorf("synth: %s: %w", dir, err)
	}
	ds, err := ihr.FromMRT(dump, g, view.RPKI, view.IRR, 0)
	if err != nil {
		return nil, fmt.Errorf("synth: %s: %w", filepath.Join(dir, fileRIB), err)
	}
	view.ds.Store(ds)
	return w, nil
}

// readFile opens path and hands its bytes, also fed to h, to fn; an
// error names the file.
func readFile(path string, h hash.Hash, fn func(io.Reader) error) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := fn(bufio.NewReaderSize(io.TeeReader(f, h), 1<<16)); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// loadIRR adds every object of an RPSL dump to db. Unlike
// irr.Database.Load it skips nothing: an object the database refuses is
// an error naming the line the object starts on.
func loadIRR(db *irr.Database, r io.Reader) error {
	p := rpsl.NewParser(r)
	for {
		o, err := p.Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		if err := db.AddObject(o); err != nil {
			return fmt.Errorf("line %d: %w", p.Line(), err)
		}
	}
}
