#include "src/relation/domain.h"

#include <charconv>

#include "src/core/check.h"

namespace datalogo {

ConstId Domain::InternSymbol(std::string_view name) {
  auto it = symbol_index_.find(name);
  if (it != symbol_index_.end()) return it->second;
  ConstId id = static_cast<ConstId>(entries_.size());
  entries_.push_back(Entry{false, std::string(name), 0});
  symbol_index_.emplace(name, id);
  return id;
}

ConstId Domain::InternInt(int64_t value) {
  auto it = int_index_.find(value);
  if (it != int_index_.end()) return it->second;
  ConstId id = static_cast<ConstId>(entries_.size());
  entries_.push_back(Entry{true, "", value});
  int_index_.emplace(value, id);
  return id;
}

bool Domain::IsInt(ConstId id) const {
  DLO_CHECK(id < entries_.size());
  return entries_[id].is_int;
}

std::optional<int64_t> Domain::AsInt(ConstId id) const {
  DLO_CHECK(id < entries_.size());
  if (!entries_[id].is_int) return std::nullopt;
  return entries_[id].value;
}

std::string Domain::ToString(ConstId id) const {
  std::string out;
  AppendTo(id, &out);
  return out;
}

void Domain::AppendTo(ConstId id, std::string* out) const {
  DLO_CHECK(id < entries_.size());
  const Entry& e = entries_[id];
  if (!e.is_int) {
    out->append(e.symbol);
    return;
  }
  char buf[24];  // "-9223372036854775808" is 20 bytes
  out->append(buf, std::to_chars(buf, buf + sizeof(buf), e.value).ptr);
}

std::optional<ConstId> Domain::FindSymbol(std::string_view name) const {
  auto it = symbol_index_.find(name);
  if (it == symbol_index_.end()) return std::nullopt;
  return it->second;
}

std::vector<ConstId> Domain::AllIds() const {
  std::vector<ConstId> ids(entries_.size());
  for (std::size_t i = 0; i < ids.size(); ++i) ids[i] = static_cast<ConstId>(i);
  return ids;
}

}  // namespace datalogo
