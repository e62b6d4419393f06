// Keyword string interning.
//
// The dictionary maps keyword strings (hashtags, species codes, tags) to
// dense KeywordIds.

#ifndef LATEST_STREAM_KEYWORD_DICTIONARY_H_
#define LATEST_STREAM_KEYWORD_DICTIONARY_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "stream/object.h"

namespace latest::stream {

/// Interns keyword strings to dense ids.
class KeywordDictionary {
 public:
  KeywordDictionary() = default;

  /// Returns the id for the keyword, interning it on first sight.
  KeywordId Intern(std::string_view keyword);

  /// Id lookup without interning; returns false when unknown.
  bool Lookup(std::string_view keyword, KeywordId* id) const;

  /// The string for an id. Id must have been returned by Intern.
  const std::string& Spelling(KeywordId id) const;

  /// Number of distinct interned keywords.
  size_t size() const { return spellings_.size(); }

 private:
  /// Transparent hash so the map probes directly with string_view keys:
  /// Intern/Lookup never materialize a temporary std::string.
  struct StringHash {
    using is_transparent = void;
    size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>{}(s);
    }
  };

  std::unordered_map<std::string, KeywordId, StringHash, std::equal_to<>>
      ids_;
  std::vector<std::string> spellings_;
};

}  // namespace latest::stream

#endif  // LATEST_STREAM_KEYWORD_DICTIONARY_H_
