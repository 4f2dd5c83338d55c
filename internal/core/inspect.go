package core

import (
	"fmt"

	"fiat/internal/artifact"
)

// StateArtifactInfo summarizes the artifact section of a serialized proxy
// image: how many unique compiled arenas and classifier templates it
// carries, how many device references point at them, and how many bytes the
// content-addressed dedup saved versus the pre-v3 format that embedded a
// copy in every device section.
type StateArtifactInfo struct {
	Arenas     int   // unique compiled rule arenas
	Models     int   // unique compiled classifier templates
	ArenaBytes int64 // bytes of unique arena blobs
	ModelBytes int64 // bytes of unique model blobs
	ArenaRefs  int   // devices referencing an arena
	ModelRefs  int   // devices referencing a model
	Devices    int   // device sections decoded
	SavedBytes int64 // bytes dedup removed vs one embedded copy per reference
}

func (i StateArtifactInfo) String() string {
	return fmt.Sprintf("%d arenas (%d B, %d refs), %d models (%d B, %d refs), %d devices, %d B deduped",
		i.Arenas, i.ArenaBytes, i.ArenaRefs, i.Models, i.ModelBytes, i.ModelRefs, i.Devices, i.SavedBytes)
}

// InspectStateArtifacts checks a proxy image offline with the decoder
// RestoreStateDetached runs — every section up to the two registries,
// which restore only into a live proxy — then validates
// every artifact blob's envelope and kind and returns dedup statistics. The
// image is one AppendStateDetached wrote and log holds its audit entries,
// the form durable snapshots keep. It needs no live proxy and mutates
// nothing; fiat-analyze -verify-state runs it on every snapshot.
func InspectStateArtifacts(body []byte, log []LogEntry) (StateArtifactInfo, error) {
	var info StateArtifactInfo
	img, err := decodeState(body, log, true)
	if err != nil {
		return info, err
	}
	for _, sec := range [...]struct {
		blobs []imageBlob
		kind  uint8
		count *int
		bytes *int64
	}{
		{img.arenas, artifact.KindRules, &info.Arenas, &info.ArenaBytes},
		{img.models, artifact.KindModel, &info.Models, &info.ModelBytes},
	} {
		for _, b := range sec.blobs {
			kind, err := artifact.Validate(b.data)
			if err != nil {
				return info, fmt.Errorf("core: inspect blob %08x: %w", b.sum, err)
			}
			if kind != sec.kind {
				return info, fmt.Errorf("core: inspect blob %08x has kind %d, want %d", b.sum, kind, sec.kind)
			}
			*sec.bytes += int64(len(b.data))
		}
		*sec.count = len(sec.blobs)
	}
	// Dedup savings: every reference beyond the first copy of a blob would
	// have been an embedded duplicate in the pre-v3 layout.
	for i := range img.devices {
		d := &img.devices[i]
		if d.arena != nil {
			info.ArenaRefs++
			info.SavedBytes += int64(len(d.arena.data))
		}
		if d.model != nil {
			info.ModelRefs++
			info.SavedBytes += int64(len(d.model.data))
		}
	}
	info.Devices = len(img.devices)
	info.SavedBytes -= info.ArenaBytes + info.ModelBytes
	if info.SavedBytes < 0 {
		info.SavedBytes = 0
	}
	return info, nil
}
