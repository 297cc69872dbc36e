#include "net/wire.h"

#include "util/coding.h"

namespace lt {
namespace wire {

std::string Frame(MsgType type, const std::string& body) {
  std::string out;
  out.reserve(5 + body.size());
  StartFrame(&out, type);
  out += body;
  FinishFrame(&out);
  return out;
}

void StartFrame(std::string* dst, MsgType type) {
  dst->assign(4, '\0');  // The length prefix, filled in by FinishFrame.
  dst->push_back(static_cast<char>(type));
}

void FinishFrame(std::string* dst) {
  EncodeFixed32(dst->data(), static_cast<uint32_t>(dst->size() - 4));
}

void EncodeKeyPrefix(std::string* dst, const Schema& schema, const Key& key) {
  PutVarint32(dst, static_cast<uint32_t>(key.size()));
  for (size_t i = 0; i < key.size(); i++) {
    EncodeValue(dst, key[i], schema.columns()[i].type);
  }
}

Status DecodeKeyPrefix(Slice* in, const Schema& schema, Key* out) {
  uint32_t n;
  if (!GetVarint32(in, &n) || n > schema.num_key_columns()) {
    return Status::Corruption("bad key prefix length");
  }
  out->clear();
  out->reserve(n);
  for (uint32_t i = 0; i < n; i++) {
    Value v;
    LT_RETURN_IF_ERROR(DecodeValue(in, schema.columns()[i].type, &v));
    out->push_back(std::move(v));
  }
  return Status::OK();
}

void EncodeBounds(std::string* dst, const Schema& schema,
                  const QueryBounds& bounds) {
  uint8_t flags = 0;
  if (bounds.min_key) flags |= 0x01;
  if (bounds.min_key && bounds.min_key->inclusive) flags |= 0x02;
  if (bounds.max_key) flags |= 0x04;
  if (bounds.max_key && bounds.max_key->inclusive) flags |= 0x08;
  if (bounds.min_ts_inclusive) flags |= 0x10;
  if (bounds.max_ts_inclusive) flags |= 0x20;
  if (bounds.direction == Direction::kDescending) flags |= 0x40;
  dst->push_back(static_cast<char>(flags));
  if (bounds.min_key) EncodeKeyPrefix(dst, schema, bounds.min_key->prefix);
  if (bounds.max_key) EncodeKeyPrefix(dst, schema, bounds.max_key->prefix);
  PutVarint64(dst, ZigZagEncode(bounds.min_ts));
  PutVarint64(dst, ZigZagEncode(bounds.max_ts));
  PutVarint64(dst, bounds.limit);
}

Status DecodeBounds(Slice* in, const Schema& schema, QueryBounds* out) {
  if (in->empty()) return Status::Corruption("bounds truncated");
  uint8_t flags = static_cast<uint8_t>((*in)[0]);
  in->remove_prefix(1);
  *out = QueryBounds();
  if (flags & 0x01) {
    KeyBound kb;
    kb.inclusive = flags & 0x02;
    LT_RETURN_IF_ERROR(DecodeKeyPrefix(in, schema, &kb.prefix));
    out->min_key = std::move(kb);
  }
  if (flags & 0x04) {
    KeyBound kb;
    kb.inclusive = flags & 0x08;
    LT_RETURN_IF_ERROR(DecodeKeyPrefix(in, schema, &kb.prefix));
    out->max_key = std::move(kb);
  }
  uint64_t zz_min, zz_max;
  if (!GetVarint64(in, &zz_min) || !GetVarint64(in, &zz_max) ||
      !GetVarint64(in, &out->limit)) {
    return Status::Corruption("bounds truncated");
  }
  out->min_ts = ZigZagDecode(zz_min);
  out->max_ts = ZigZagDecode(zz_max);
  out->min_ts_inclusive = flags & 0x10;
  out->max_ts_inclusive = flags & 0x20;
  out->direction =
      (flags & 0x40) ? Direction::kDescending : Direction::kAscending;
  return Status::OK();
}

ErrCode CodeForStatus(const Status& s) {
  switch (s.code()) {
    case Status::Code::kNotFound: return ErrCode::kNotFound;
    case Status::Code::kAlreadyExists: return ErrCode::kAlreadyExists;
    case Status::Code::kInvalidArgument: return ErrCode::kInvalidArgument;
    case Status::Code::kCorruption: return ErrCode::kCorruption;
    case Status::Code::kIOError: return ErrCode::kIOError;
    // Server-side kUnavailable means overload (e.g. flush backlog at the
    // hard cap): tell the client to back off.
    case Status::Code::kUnavailable: return ErrCode::kServerBusy;
    default: return ErrCode::kGeneric;
  }
}

Status StatusForCode(ErrCode code, const std::string& message) {
  switch (code) {
    case ErrCode::kNotFound: return Status::NotFound(message);
    case ErrCode::kAlreadyExists: return Status::AlreadyExists(message);
    case ErrCode::kInvalidArgument: return Status::InvalidArgument(message);
    case ErrCode::kSchemaChanged: return Status::Aborted(message);
    case ErrCode::kCorruption: return Status::Corruption(message);
    case ErrCode::kIOError: return Status::IOError(message);
    case ErrCode::kServerBusy:
      return Status::Unavailable(message.empty() ? "server busy" : message);
    case ErrCode::kShuttingDown:
      return Status::Unavailable(message.empty() ? "server shutting down"
                                                 : message);
    case ErrCode::kBadRequest:
      return Status::InvalidArgument(message.empty() ? "bad request"
                                                     : message);
    case ErrCode::kWrongShard:
      // Routing staleness is retryable after a shard-map refresh; Aborted
      // keeps it distinct from connection errors so a plain Client never
      // blind-retries it.
      return Status::Aborted(message.empty() ? "wrong shard" : message);
    case ErrCode::kResourceExhausted:
      // Same retry class as kServerBusy (back off, try again); the message
      // keeps the quota-vs-busy distinction visible to callers.
      return Status::Unavailable(message.empty() ? "resource exhausted"
                                                 : message);
    case ErrCode::kCancelled:
      // Aborted, not Unavailable: the client cancelled it; a blind retry
      // would resurrect the very work the caller just killed.
      return Status::Aborted(message.empty() ? "query cancelled" : message);
    case ErrCode::kGeneric: break;
  }
  return Status::NetworkError(message);
}

}  // namespace wire
}  // namespace lt
