#include "engine/file_registry.h"

#include <algorithm>
#include <filesystem>
#include <utility>

namespace backsort {

namespace {

bool IsUnsequenceFile(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  const std::string name =
      slash == std::string::npos ? path : path.substr(slash + 1);
  return name.rfind("unseq-", 0) == 0;
}

}  // namespace

SealedFileMeta::SealedFileMeta(std::string path,
                               std::shared_ptr<const FooterIndex> ranges,
                               ChunkCache* cache)
    : path_(std::move(path)),
      cache_(cache),
      unsequence_(IsUnsequenceFile(path_)) {
  sensor_count_ = ranges->size();
  for (size_t i = 0; i < ranges->size(); ++i) {
    const ChunkLocator& locator = ranges->LocatorAt(i);
    if (locator.min_t > locator.max_t) continue;  // empty chunk
    if (span_min_t_ > span_max_t_) {
      span_min_t_ = locator.min_t;
      span_max_t_ = locator.max_t;
    } else {
      span_min_t_ = std::min(span_min_t_, locator.min_t);
      span_max_t_ = std::max(span_max_t_, locator.max_t);
    }
  }
  if (cache_ != nullptr && cache_->enabled()) {
    // Publish the footer as the cache's (evictable) copy; only the O(1)
    // summary above stays pinned with the file.
    cache_->PutFooter(path_, std::move(ranges));
  } else {
    pinned_ = std::move(ranges);
  }
}

SealedFileMeta::~SealedFileMeta() {
  if (!obsolete_.load(std::memory_order_acquire)) return;
  if (cache_ != nullptr) cache_->InvalidateFile(path_);
  std::error_code ec;
  std::filesystem::remove(path_, ec);  // best effort; orphans are harmless
}

Status SealedFileMeta::Footer(std::shared_ptr<const FooterIndex>* out) const {
  if (pinned_ != nullptr) {
    *out = pinned_;
    return Status::OK();
  }
  std::shared_ptr<const FooterIndex> footer = cache_->GetFooter(path_);
  if (footer == nullptr) {
    // Evicted (or never warmed): tail-only re-read, shared via the cache
    // so concurrent readers of this file converge on one copy.
    FooterMap parsed;
    RETURN_NOT_OK(ReadTsFileFooter(path_, &parsed));
    auto fresh = std::make_shared<const FooterIndex>(parsed);
    cache_->PutFooter(path_, fresh);
    footer = std::move(fresh);
  }
  *out = std::move(footer);
  return Status::OK();
}

Status SealedFileMeta::OpenChunk(const std::string& sensor,
                                 const ChunkLocator& locator,
                                 std::optional<PageReader>* out) const {
  std::shared_ptr<const PageDirectory> cached =
      cache_ != nullptr ? cache_->GetDirectory(path_, sensor) : nullptr;
  const bool miss = cached == nullptr;
  RETURN_NOT_OK(OpenPageReader(path_, sensor, locator, std::move(cached), out));
  if (miss && cache_ != nullptr) {
    cache_->PutDirectory(path_, sensor, (*out)->directory());
  }
  return Status::OK();
}

}  // namespace backsort
