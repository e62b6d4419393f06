#include "stream/keyword_dictionary.h"

#include <cassert>

namespace latest::stream {

KeywordId KeywordDictionary::Intern(std::string_view keyword) {
  // Single heterogeneous probe: find with the string_view, and only a
  // miss pays the std::string construction for the stored key.
  auto it = ids_.find(keyword);
  if (it != ids_.end()) return it->second;
  const KeywordId id = static_cast<KeywordId>(spellings_.size());
  spellings_.emplace_back(keyword);
  ids_.emplace(spellings_.back(), id);
  return id;
}

bool KeywordDictionary::Lookup(std::string_view keyword, KeywordId* id) const {
  auto it = ids_.find(keyword);
  if (it == ids_.end()) return false;
  *id = it->second;
  return true;
}

const std::string& KeywordDictionary::Spelling(KeywordId id) const {
  assert(id < spellings_.size());
  return spellings_[id];
}

}  // namespace latest::stream
