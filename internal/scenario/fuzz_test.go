package scenario

import (
	"reflect"
	"testing"
)

// FuzzDecode drives the scenario decoder with arbitrary bytes.
// Properties: no panic, bounded work (the event/line caps), and any
// input that decodes must re-encode and decode to the same scenario.
func FuzzDecode(f *testing.F) {
	f.Add("scenario demo\nrp-fail rir=RIPE\n")
	f.Add("announce asn=64500 prefix=10.0.0.0/8\nhijack-roa asn=0 prefix=16.0.0.0/8 maxlen=24 from=2012 to=2030\n")
	f.Add("expire rir=ARIN frac=0.5 skew=720h0m0s\nroa-delay lag=2160h0m0s\n")
	f.Add("anchor-pair asn=64501 valid=24.0.0.0/20 invalid=24.0.16.0/20\n")
	f.Add("# comment\n\nscenario x\n")
	// JSON is not a scenario encoding: refused like any other bad line.
	f.Add(`{"name":"j","events":[{"op":"rp-fail","rir":"RIPE"},{"op":"roa-delay","lag":"5m0s"}]}`)
	f.Add(`{"events":[{"op":"announce","asn":1,"prefix":"10.0.0.0/8"}]}`)
	// Once crashers: a name that is not valid UTF-8, a field Encode drops.
	f.Add("scenario \xff")
	f.Add("announce asn=1 prefix=0.0.0.0/0 to=1")

	f.Fuzz(func(t *testing.T, data string) {
		sc, err := Decode([]byte(data))
		if err != nil {
			return
		}
		text := sc.Encode()
		back, err := Decode([]byte(text))
		if err != nil {
			t.Fatalf("re-decode of encoded scenario failed: %v\n%s", err, text)
		}
		if !reflect.DeepEqual(sc, back) {
			t.Fatalf("text round trip drifted:\n%#v\nvs\n%#v", sc, back)
		}
	})
}
