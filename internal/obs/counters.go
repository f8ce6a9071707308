package obs

import "strings"

// Counters are a device's deterministic counters: the lookup engine's,
// the EV cache's and the flash array's, with per-channel read traffic.
// They are the one counter source. A device snapshot is
// core.RMSSD.Counters, a span carries the difference of two snapshots
// (Sub), and rmserve sums snapshots over shards and devices (Add) before
// rendering /stats, the rmssd_model_* mirrors and its replay reports.
// Every value is derived from simulated state only.
//
// Channels lists only the channels with non-zero traffic, in channel
// order; Add and Sub keep that form.
type Counters struct {
	Lookups        int64 `json:"lookups,omitempty"`
	DedupHits      int64 `json:"dedupHits,omitempty"`
	BytesPooled    int64 `json:"bytesPooled,omitempty"`
	CacheHits      int64 `json:"cacheHits,omitempty"`
	CacheMisses    int64 `json:"cacheMisses,omitempty"`
	CacheEvictions int64 `json:"cacheEvictions,omitempty"`

	VectorReads      int64 `json:"vectorReads,omitempty"`
	PageReads        int64 `json:"pageReads,omitempty"`
	ECCRetries       int64 `json:"eccRetries,omitempty"`
	ReadFaults       int64 `json:"readFaults,omitempty"`
	Uncorrectable    int64 `json:"uncorrectable,omitempty"`
	BytesTransferred int64 `json:"bytesTransferred,omitempty"`

	Channels []ChannelIO `json:"channels,omitempty"`
}

// ChannelIO is per-flash-channel read traffic.
type ChannelIO struct {
	Channel       int   `json:"channel"`
	Reads         int64 `json:"reads"`
	Retries       int64 `json:"retries,omitempty"`
	Uncorrectable int64 `json:"uncorrectable,omitempty"`
}

// CounterName names one scalar counter's two metric families: Family is
// the span-driven family each device span adds its delta to, and Mirror
// the rmssd_model_* family rmserve sets from a snapshot at scrape time.
type CounterName struct{ Family, Mirror string }

// counterNames is the one ordered name table, in Counters field order
// (see scalars). A mirror is named by one rule: the family with its
// rmssd_device_ or rmssd_ prefix replaced by rmssd_model_.
var counterNames = func() []CounterName {
	families := []string{
		"rmssd_device_lookups_total",
		"rmssd_device_dedup_hits_total",
		"rmssd_device_bytes_pooled_total",
		"rmssd_evcache_hits_total",
		"rmssd_evcache_misses_total",
		"rmssd_evcache_evictions_total",
		"rmssd_flash_vector_reads_total",
		"rmssd_flash_page_reads_total",
		"rmssd_flash_ecc_retries_total",
		"rmssd_flash_read_faults_total",
		"rmssd_flash_uncorrectable_total",
		"rmssd_flash_bytes_transferred_total",
	}
	names := make([]CounterName, len(families))
	for i, f := range families {
		base := strings.TrimPrefix(strings.TrimPrefix(f, "rmssd_"), "device_")
		names[i] = CounterName{Family: f, Mirror: "rmssd_model_" + base}
	}
	return names
}()

// scalars returns pointers to the scalar counters in name-table order.
func (c *Counters) scalars() [12]*int64 {
	return [12]*int64{
		&c.Lookups, &c.DedupHits, &c.BytesPooled,
		&c.CacheHits, &c.CacheMisses, &c.CacheEvictions,
		&c.VectorReads, &c.PageReads, &c.ECCRetries,
		&c.ReadFaults, &c.Uncorrectable, &c.BytesTransferred,
	}
}

// Each calls fn with every scalar counter's names and value, in table
// order.
func (c Counters) Each(fn func(name CounterName, v int64)) {
	for i, p := range c.scalars() {
		fn(counterNames[i], *p)
	}
}

// Add folds o into c, channel by channel.
func (c *Counters) Add(o Counters) {
	dst, src := c.scalars(), o.scalars()
	for i, p := range dst {
		*p += *src[i]
	}
	c.Channels = mergeChannels(c.Channels, o.Channels, 1)
}

// Sub returns c minus o: the traffic between snapshot o and the later
// snapshot c. Channels that did not move are dropped.
func (c Counters) Sub(o Counters) Counters {
	dst, src := c.scalars(), o.scalars()
	for i, p := range dst {
		*p -= *src[i]
	}
	c.Channels = mergeChannels(c.Channels, o.Channels, -1)
	return c
}

// HitRatio returns the EV cache's hits over its probes, or 0 before any.
func (c Counters) HitRatio() float64 {
	if probes := c.CacheHits + c.CacheMisses; probes > 0 {
		return float64(c.CacheHits) / float64(probes)
	}
	return 0
}

// mergeChannels returns a + sign*b over two channel-ordered lists, keeping
// only the non-zero channels. It never writes into a or b.
func mergeChannels(a, b []ChannelIO, sign int64) []ChannelIO {
	var out []ChannelIO
	for i, j := 0, 0; i < len(a) || j < len(b); {
		var x, y ChannelIO // a's and b's traffic on the next channel
		switch {
		case j == len(b) || i < len(a) && a[i].Channel < b[j].Channel:
			x, y.Channel = a[i], a[i].Channel
			i++
		case i == len(a) || b[j].Channel < a[i].Channel:
			x.Channel, y = b[j].Channel, b[j]
			j++
		default:
			x, y = a[i], b[j]
			i, j = i+1, j+1
		}
		ch := ChannelIO{Channel: x.Channel, Reads: x.Reads + sign*y.Reads,
			Retries: x.Retries + sign*y.Retries, Uncorrectable: x.Uncorrectable + sign*y.Uncorrectable}
		if ch != (ChannelIO{Channel: ch.Channel}) {
			out = append(out, ch)
		}
	}
	return out
}
