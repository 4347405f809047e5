#ifndef WEDGEBLOCK_SHARD_SHARD_RPC_H_
#define WEDGEBLOCK_SHARD_SHARD_RPC_H_

#include "core/rpc_codec.h"
#include "shard/sharded_engine.h"

namespace wedge {

/// The RPC handler: decodes the tenant-scoped ops
/// ("appendT"/"readT"/"readBatchT"/"aggProof", see core/rpc_codec.h),
/// calls into the sharded engine and encodes the reply body. A single
/// tenant is served by a 1-shard engine (forest_stage2=false, the
/// paper's per-batch stage 2). Unknown ops are typed NotFound errors.
///
/// Quota rejections propagate as typed ResourceExhausted errors; the RPC
/// server encodes them into the error response via Status::ToString and
/// Status::FromWireString recovers them client-side.
Result<Bytes> DispatchEngineRpc(ShardedLogEngine& engine,
                                std::string_view op, const Bytes& body);

}  // namespace wedge

#endif  // WEDGEBLOCK_SHARD_SHARD_RPC_H_
