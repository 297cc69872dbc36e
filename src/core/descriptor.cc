#include "core/descriptor.h"

#include <algorithm>

#include "util/coding.h"
#include "util/crc32c.h"
#include "util/fault.h"

namespace lt {
namespace {

constexpr uint64_t kDescriptorMagic = 0x6c746465736331ull;  // "ltdesc1"
// A tablet entry's least size: an empty name's length byte and six
// one-byte varints.
constexpr uint64_t kMinTabletEntryBytes = 7;

}  // namespace

void TableDescriptor::SortTablets() {
  std::sort(tablets.begin(), tablets.end(),
            [](const TabletMeta& a, const TabletMeta& b) {
              if (a.min_ts != b.min_ts) return a.min_ts < b.min_ts;
              if (a.max_ts != b.max_ts) return a.max_ts < b.max_ts;
              return a.filename < b.filename;
            });
}

std::string TableDescriptor::Encode() const {
  std::string body;
  PutFixed64(&body, kDescriptorMagic);
  PutLengthPrefixedSlice(&body, table_name);
  schema.EncodeTo(&body);
  PutVarint64(&body, static_cast<uint64_t>(ttl));
  PutVarint64(&body, next_file_seq);
  PutVarint64(&body, tablets.size());
  for (const TabletMeta& t : tablets) {
    PutLengthPrefixedSlice(&body, t.filename);
    PutVarint64(&body, ZigZagEncode(t.min_ts));
    PutVarint64(&body, ZigZagEncode(t.max_ts));
    PutVarint64(&body, t.file_bytes);
    PutVarint64(&body, t.row_count);
    PutVarint64(&body, ZigZagEncode(t.flushed_at));
    PutVarint32(&body, t.schema_version);
  }
  std::string out = body;
  PutFixed32(&out, crc32c::Mask(crc32c::Value(body.data(), body.size())));
  return out;
}

Status TableDescriptor::Decode(const Slice& data, TableDescriptor* out) {
  if (data.size() < 12) return Status::Corruption("descriptor too small");
  Slice body(data.data(), data.size() - 4);
  uint32_t stored_crc = DecodeFixed32(data.data() + data.size() - 4);
  if (crc32c::Unmask(stored_crc) !=
      crc32c::Value(body.data(), body.size())) {
    return Status::Corruption("descriptor checksum mismatch");
  }
  // Decoded aside and moved out whole, so a failure leaves *out as it was.
  TableDescriptor d;
  Slice in = body;
  uint64_t magic;
  if (!GetFixed64(&in, &magic) || magic != kDescriptorMagic) {
    return Status::Corruption("bad descriptor magic");
  }
  Slice name;
  if (!GetLengthPrefixedSlice(&in, &name)) {
    return Status::Corruption("bad descriptor name");
  }
  d.table_name = name.ToString();
  LT_RETURN_IF_ERROR(Schema::DecodeFrom(&in, &d.schema));
  uint64_t ttl, ntablets;
  if (!GetVarint64(&in, &ttl) || !GetVarint64(&in, &d.next_file_seq) ||
      !GetVarint64(&in, &ntablets)) {
    return Status::Corruption("bad descriptor header");
  }
  d.ttl = static_cast<Timestamp>(ttl);
  // An entry takes at least kMinTabletEntryBytes, so a count the rest of
  // the body cannot hold is corrupt; checked before it sizes anything.
  if (ntablets > in.size() / kMinTabletEntryBytes) {
    return Status::Corruption("bad descriptor tablet count");
  }
  d.tablets.reserve(ntablets);
  for (uint64_t i = 0; i < ntablets; i++) {
    TabletMeta t;
    Slice fname;
    uint64_t zz_min, zz_max, zz_flushed;
    if (!GetLengthPrefixedSlice(&in, &fname) || !GetVarint64(&in, &zz_min) ||
        !GetVarint64(&in, &zz_max) || !GetVarint64(&in, &t.file_bytes) ||
        !GetVarint64(&in, &t.row_count) || !GetVarint64(&in, &zz_flushed) ||
        !GetVarint32(&in, &t.schema_version)) {
      return Status::Corruption("bad descriptor tablet entry");
    }
    t.filename = fname.ToString();
    t.min_ts = ZigZagDecode(zz_min);
    t.max_ts = ZigZagDecode(zz_max);
    t.flushed_at = ZigZagDecode(zz_flushed);
    d.tablets.push_back(std::move(t));
  }
  if (!in.empty()) return Status::Corruption("trailing descriptor bytes");
  *out = std::move(d);
  return Status::OK();
}

Status TableDescriptor::Save(Env* env, const std::string& path) const {
  const std::string tmp = path + ".tmp";
  // Crash points bracket the commit protocol: before the tmp write (nothing
  // durable yet) and before the rename (tmp written but not yet the live
  // descriptor). There is deliberately no point *after* the rename inside
  // Save — once the rename succeeds the new descriptor rules, and callers
  // must not roll back files it references.
  LT_CRASH_POINT("descriptor:tmp_write");
  LT_RETURN_IF_ERROR(WriteStringToFile(env, Encode(), tmp, /*sync=*/true));
  LT_CRASH_POINT("descriptor:rename");
  Status s = env->RenameFile(tmp, path);
  if (!s.ok()) env->RemoveFile(tmp);
  return s;
}

Status TableDescriptor::Load(Env* env, const std::string& path,
                             TableDescriptor* out) {
  std::string data;
  LT_RETURN_IF_ERROR(ReadFileToString(env, path, &data));
  return Decode(data, out);
}

}  // namespace lt
