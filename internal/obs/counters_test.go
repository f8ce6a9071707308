package obs

import (
	"reflect"
	"strings"
	"testing"
)

// TestCountersAddSub: Sub undoes Add, channel by channel, and drops the
// channels that did not move, so a span's delta lists only the channels
// its batch touched.
func TestCountersAddSub(t *testing.T) {
	base := Counters{
		Lookups: 80, DedupHits: 3, BytesPooled: 10240, CacheHits: 40, CacheMisses: 37,
		CacheEvictions: 5, VectorReads: 37, PageReads: 2, ECCRetries: 9, ReadFaults: 6,
		Uncorrectable: 1, BytesTransferred: 4736,
		Channels: []ChannelIO{{Channel: 0, Reads: 20, Retries: 4}, {Channel: 3, Reads: 19, Retries: 5, Uncorrectable: 1}},
	}
	for _, tc := range []struct {
		name       string
		base, diff Counters
	}{
		{"from zero", Counters{}, base},
		{"nothing moved", base, Counters{}},
		{"same channels", base, Counters{Lookups: 8, VectorReads: 8,
			Channels: []ChannelIO{{Channel: 0, Reads: 4}, {Channel: 3, Reads: 4, Retries: 1}}}},
		{"new channels", base, Counters{Lookups: 4, VectorReads: 4, ReadFaults: 1, ECCRetries: 2,
			Channels: []ChannelIO{{Channel: 1, Reads: 2, Retries: 2}, {Channel: 7, Reads: 2}}}},
		{"some channels", base, Counters{Lookups: 2, CacheHits: 2, VectorReads: 1,
			Channels: []ChannelIO{{Channel: 3, Reads: 1}}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			baseChannels := append([]ChannelIO(nil), tc.base.Channels...)
			sum := tc.base
			sum.Add(tc.diff)
			if !reflect.DeepEqual(tc.base.Channels, baseChannels) {
				t.Fatal("Add wrote into its receiver's old channel list")
			}
			if got := sum.Sub(tc.base); !reflect.DeepEqual(got, tc.diff) {
				t.Fatalf("(base + diff) - base = %+v, want %+v", got, tc.diff)
			}
			if got := sum.Sub(tc.diff); !reflect.DeepEqual(got, tc.base) {
				t.Fatalf("(base + diff) - diff = %+v, want %+v", got, tc.base)
			}
		})
	}
	if d := base.Sub(base); !reflect.DeepEqual(d, Counters{}) {
		t.Fatalf("base - base = %+v, want zero with no channels", d)
	}
}

// TestCountersNameTable: Each visits the scalar counters in field order
// under distinct span families, each mirrored by the one naming rule.
func TestCountersNameTable(t *testing.T) {
	c := Counters{
		Lookups: 1, DedupHits: 2, BytesPooled: 3, CacheHits: 4, CacheMisses: 5, CacheEvictions: 6,
		VectorReads: 7, PageReads: 8, ECCRetries: 9, ReadFaults: 10, Uncorrectable: 11, BytesTransferred: 12,
	}
	seen := map[string]bool{}
	var next int64 = 1
	c.Each(func(name CounterName, v int64) {
		if v != next {
			t.Errorf("%s: value %d, want %d (field order)", name.Family, v, next)
		}
		next++
		if seen[name.Family] || seen[name.Mirror] {
			t.Errorf("name %+v repeats", name)
		}
		seen[name.Family], seen[name.Mirror] = true, true
		base := strings.TrimPrefix(strings.TrimPrefix(name.Family, "rmssd_"), "device_")
		if !strings.HasSuffix(name.Family, "_total") || name.Mirror != "rmssd_model_"+base {
			t.Errorf("names %+v do not follow the mirror rule", name)
		}
	})
	if next != 13 {
		t.Fatalf("Each visited %d counters, want 12", next-1)
	}
	if r := c.HitRatio(); r != 4.0/9 {
		t.Fatalf("hit ratio %v, want 4/9", r)
	}
	if r := (Counters{}).HitRatio(); r != 0 {
		t.Fatalf("hit ratio without probes %v, want 0", r)
	}
}
