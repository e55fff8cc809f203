#ifndef DODUO_UTIL_METRIC_NAMES_H_
#define DODUO_UTIL_METRIC_NAMES_H_

#include <string_view>

namespace doduo::util::metric_names {

// The central metric-name registry (DESIGN §10, §16). Every name passed to
// GetCounter/GetHistogram anywhere in src/ must appear here, and every name
// here must have a call site; `doduo_lint` (metrics-registry pass)
// enforces both directions and suggests the nearest registered name when a
// literal looks typo'd. Names with the "test." prefix are ad-hoc test
// metrics and exempt.
//
// Registering a name means adding one constant below and using it (or the
// identical literal) at the call site. Call sites may keep inline literals
// — the registry is the source of truth the linter checks them against,
// so a near-duplicate like "annotate.abstaned" can never ship silently.
//
// Naming: "<subsystem>.<event>[_total|_us]". The "annotate.*" family
// (per-column robustness outcomes) is intentionally distinct from
// "annotator.*" (batch pipeline throughput) — see DESIGN §15.

// -- core/annotator: batch pipeline throughput and latency ------------------
inline constexpr std::string_view kAnnotatorTablesTotal =
    "annotator.tables_total";
inline constexpr std::string_view kAnnotatorColumnsTotal =
    "annotator.columns_total";
inline constexpr std::string_view kAnnotatorErrorsTotal =
    "annotator.errors_total";
inline constexpr std::string_view kAnnotatorBatchesTotal =
    "annotator.batches_total";
inline constexpr std::string_view kAnnotatorAnnotateUs =
    "annotator.annotate_us";
inline constexpr std::string_view kAnnotatorBatchUs = "annotator.batch_us";

// -- core/annotator: per-column robustness outcomes (DESIGN §15) ------------
inline constexpr std::string_view kAnnotateAbstained = "annotate.abstained";
inline constexpr std::string_view kAnnotateSkippedCols =
    "annotate.skipped_cols";

// -- core/replica_pool: fan-out replica pools built (DESIGN §7) -------------
inline constexpr std::string_view kReplicaPoolBuildsTotal =
    "replica_pool.builds_total";

// -- core/model: forward-pass stage latencies -------------------------------
inline constexpr std::string_view kModelEncoderForwardUs =
    "model.encoder_forward_us";
inline constexpr std::string_view kModelHeadsUs = "model.heads_us";

// -- checkpoint load path (nn/serialize, core/model_io) ---------------------
inline constexpr std::string_view kLoadBytesMapped = "load.bytes_mapped";
inline constexpr std::string_view kLoadBytesCopied = "load.bytes_copied";
inline constexpr std::string_view kLoadCheckpointUs = "load.checkpoint_us";

// -- nn/quant: int8 weight panels built (load or lazy cache, DESIGN §14) ----
inline constexpr std::string_view kQuantPanelsPacked = "quant.panels_packed";

// -- table/sanitizer: dirty-input repair outcomes ---------------------------
inline constexpr std::string_view kSanitizerCellsRepaired =
    "sanitizer.cells_repaired";
inline constexpr std::string_view kSanitizerCellsClamped =
    "sanitizer.cells_clamped";
inline constexpr std::string_view kSanitizerColsSkipped =
    "sanitizer.cols_skipped";
inline constexpr std::string_view kSanitizerTables = "sanitizer.tables";

// -- table/serializer: tokenization volume ----------------------------------
inline constexpr std::string_view kSerializerSerializeUs =
    "serializer.serialize_us";
inline constexpr std::string_view kSerializerTablesTotal =
    "serializer.tables_total";
inline constexpr std::string_view kSerializerTokensTotal =
    "serializer.tokens_total";
inline constexpr std::string_view kSerializerSpansTruncatedTotal =
    "serializer.spans_truncated_total";

// -- serve: request lifecycle (DESIGN §12) ----------------------------------
inline constexpr std::string_view kServeE2eUs = "serve.e2e_us";
inline constexpr std::string_view kServeProtocolErrors =
    "serve.protocol_errors";
inline constexpr std::string_view kServeQueueWaitUs = "serve.queue_wait_us";
inline constexpr std::string_view kServeBatchAssemblyUs =
    "serve.batch_assembly_us";
inline constexpr std::string_view kServeInferenceUs = "serve.inference_us";
inline constexpr std::string_view kServeBatchSize = "serve.batch_size";
inline constexpr std::string_view kServeRequestsTotal =
    "serve.requests_total";
inline constexpr std::string_view kServeRequestsRejected =
    "serve.requests_rejected";
inline constexpr std::string_view kServeBatchesTotal = "serve.batches_total";

}  // namespace doduo::util::metric_names

#endif  // DODUO_UTIL_METRIC_NAMES_H_
