package eyeball

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"strings"
	"testing"
)

func TestWriteDatasetCSV(t *testing.T) {
	w, ds := apiSetup(t)
	var buf bytes.Buffer
	if err := WriteDatasetCSV(&buf, w, ds); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(ds.Records())+1 {
		t.Fatalf("rows = %d, want %d", len(rows), len(ds.Records())+1)
	}
	if rows[0][0] != "asn" || len(rows[0]) != 12 {
		t.Errorf("header = %v", rows[0])
	}
	if rows[0][6] != "users" || rows[0][7] != "samples" {
		t.Errorf("count columns = %v, want users,samples", rows[0][6:8])
	}
	// First data row matches the first record.
	rec := ds.Records()[0]
	if rows[1][0] != itoa(int(rec.ASN)) {
		t.Errorf("first row asn %s, want %d", rows[1][0], rec.ASN)
	}
	if rows[1][6] != itoa(rec.Users) {
		t.Errorf("users column %s, want %d", rows[1][6], rec.Users)
	}
	if rows[1][7] != itoa(len(rec.Samples)) {
		t.Errorf("samples column %s, want %d", rows[1][7], len(rec.Samples))
	}
	// With no sampling cap in apiSetup, users == samples; the app
	// columns count per-crawler observations and may sum past users.
	if rows[1][6] != rows[1][7] {
		t.Errorf("uncapped build: users %s != samples %s", rows[1][6], rows[1][7])
	}
}

func itoa(n int) string {
	var b [20]byte
	i := len(b)
	if n == 0 {
		return "0"
	}
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

func TestWriteSamplesCSV(t *testing.T) {
	_, ds := apiSetup(t)
	rec := ds.Records()[0]
	var buf bytes.Buffer
	if err := WriteSamplesCSV(&buf, rec); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(rec.Samples)+1 {
		t.Fatalf("rows = %d, want %d", len(rows), len(rec.Samples)+1)
	}
	if rows[0][0] != "lat" {
		t.Errorf("header = %v", rows[0])
	}

	// A label-less sample (nil Place) writes four empty labels.
	buf.Reset()
	bare := &ASRecord{Samples: []Sample{{Loc: GeoPoint{Lat: 1, Lon: 2}, GeoErrKm: 3}}}
	if err := WriteSamplesCSV(&buf, bare); err != nil {
		t.Fatal(err)
	}
	if got, want := buf.String(), "lat,lon,city,state,country,region,geoerr_km\n1.00000,2.00000,,,,,3.00\n"; got != want {
		t.Errorf("label-less sample: got %q, want %q", got, want)
	}
}

func TestWriteWorldJSON(t *testing.T) {
	w, _ := apiSetup(t)
	var buf bytes.Buffer
	if err := WriteWorldJSON(&buf, w); err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		Seed uint64 `json:"seed"`
		ASes []struct {
			ASN      int      `json:"asn"`
			Kind     string   `json:"kind"`
			PoPs     []any    `json:"pops"`
			Prefixes []string `json:"prefixes"`
		} `json:"ases"`
		IXPs     []any `json:"ixps"`
		Peerings []any `json:"peerings"`
	}
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatal(err)
	}
	if decoded.Seed != w.Seed {
		t.Errorf("seed = %d", decoded.Seed)
	}
	if len(decoded.ASes) != len(w.ASNs()) {
		t.Errorf("ases = %d, want %d", len(decoded.ASes), len(w.ASNs()))
	}
	if len(decoded.IXPs) == 0 || len(decoded.Peerings) == 0 {
		t.Error("missing IXPs or peerings")
	}
	for _, a := range decoded.ASes[:10] {
		if len(a.PoPs) == 0 || len(a.Prefixes) == 0 {
			t.Errorf("AS %d lacks pops or prefixes", a.ASN)
		}
	}
	// Determinism.
	var buf2 bytes.Buffer
	if err := WriteWorldJSON(&buf2, w); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Error("world JSON not deterministic")
	}
	if !strings.Contains(buf.String(), "RomaMedia") {
		t.Error("case-study AS missing from JSON")
	}
}
