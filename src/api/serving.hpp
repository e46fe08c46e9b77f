// Facade forwarding header: the serving side of the library.
//
// The public surface is gosh::serving — the QueryService interface with
// its QueryRequest/QueryResponse model, the string-keyed ServiceRegistry
// ("exact", "hnsw", "batched", "router", "dist-router", "auto"),
// structured ServeOptions, the EngineService every strategy is built on,
// the sharded-store ShardRouter, and the MetricsRegistry sink. The
// internals EngineService composes (gosh/store/ mmap store, gosh/query/
// scans + HNSW + BatchQueue) ride along for programmatic composition, but
// tools, benches and examples should speak QueryService only.
#pragma once

#include "gosh/serving/metrics.hpp"
#include "gosh/serving/options.hpp"
#include "gosh/serving/registry.hpp"
#include "gosh/serving/service.hpp"
#include "gosh/serving/shard_router.hpp"

#include "gosh/query/batch_queue.hpp"
#include "gosh/query/brute_force.hpp"
#include "gosh/query/hnsw.hpp"
#include "gosh/query/metric.hpp"
#include "gosh/store/embedding_store.hpp"
