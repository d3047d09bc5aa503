package core

import "equitruss/internal/obs"

// Process-wide counters emitted by the index-construction kernels,
// registered once at package init so hot paths never touch the registry.
var (
	cSVHookRounds = obs.GetCounter("spnode_sv_hook_rounds",
		"SV hooking rounds executed across all trussness groups in SpNode")
	cSVShortcutRounds = obs.GetCounter("spnode_sv_shortcut_rounds",
		"SV shortcut (pointer-jumping) rounds executed in SpNode")
	cHookCASFailures = obs.GetCounter("spnode_hook_cas_failures",
		"SV hook CASes lost to concurrent writers in SpNode")
	cUnionFindRetries = obs.GetCounter("unionfind_cas_retries",
		"union-find hook CASes retried under contention (Afforest forests)")
	cSpEdgeEmitted = obs.GetCounter("spedge_emitted",
		"superedge candidates appended to thread-local subsets by SpEdge")
	cSpEdgeFiltered = obs.GetCounter("spedge_filtered",
		"repeated superedge candidates SpEdge's per-thread filter dropped before appending")
	cSmGraphDeduped = obs.GetCounter("smgraph_superedges_deduped",
		"duplicate superedge candidates removed by the SmGraph merge")
	cSmGraphFinal = obs.GetCounter("smgraph_superedges_final",
		"deduplicated superedges surviving the SmGraph merge")
)
