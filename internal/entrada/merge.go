package entrada

// Merge folds other into ag, enabling sharded analysis: split a large
// capture by file, run one Analyzer per shard, and merge the results.
// Queries whose response landed in a different shard count as unanswered
// in their shard (valid), like the single-analyzer flush behavior.
func (ag *Aggregates) Merge(other *Aggregates) {
	if other == nil {
		return
	}
	ag.Total += other.Total
	ag.Valid += other.Valid
	ag.TCPResponses += other.TCPResponses
	ag.DroppedSegments += other.DroppedSegments
	for p, opa := range other.ByProvider {
		pa := ag.Provider(p)
		pa.Queries += opa.Queries
		pa.Junk += opa.Junk
		pa.V6 += opa.V6
		pa.TCP += opa.TCP
		pa.UDPResponses += opa.UDPResponses
		pa.TruncatedUDP += opa.TruncatedUDP
		pa.PublicDNSQueries += opa.PublicDNSQueries
		pa.MinimizedQueries += opa.MinimizedQueries
		for t, n := range opa.ByType {
			pa.ByType[t] += n
		}
		pa.EDNSSizes.Merge(opa.EDNSSizes)
		for a := range opa.Resolvers {
			pa.Resolvers[a] = struct{}{}
		}
	}
	for asn := range other.ASes {
		ag.ASes[asn] = struct{}{}
	}
	for a := range other.AllResolvers {
		ag.AllResolvers[a] = struct{}{}
	}
	for k, fc := range other.FocusQueries {
		mine, ok := ag.FocusQueries[k]
		if !ok {
			mine = &FamilyCount{}
			ag.FocusQueries[k] = mine
		}
		mine.V4 += fc.V4
		mine.V6 += fc.V6
	}
	for k, sketch := range other.RTTs {
		mine, ok := ag.RTTs[k]
		if !ok {
			mine = sketch.Clone()
			ag.RTTs[k] = mine
			continue
		}
		mine.Merge(sketch)
	}
	for h, n := range other.Hourly {
		ag.Hourly[h] += n
	}
}
