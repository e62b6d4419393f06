#include "stream/object.h"

#include <algorithm>

namespace latest::stream {

bool KeywordSetsIntersect(const KeywordId* a, size_t a_len, const KeywordId* b,
                          size_t b_len) {
  // Merge-style intersection test: objects carry a handful of keywords
  // and queries up to ~5, so a linear merge is the whole cost.
  const KeywordId* a_end = a + a_len;
  const KeywordId* b_end = b + b_len;
  while (a != a_end && b != b_end) {
    if (*a < *b) {
      ++a;
    } else if (*b < *a) {
      ++b;
    } else {
      return true;
    }
  }
  return false;
}

bool GeoTextObject::MatchesAnyKeyword(
    const std::vector<KeywordId>& query_keywords) const {
  return KeywordSetsIntersect(keywords.data(), keywords.size(),
                              query_keywords.data(), query_keywords.size());
}

void CanonicalizeKeywords(std::vector<KeywordId>* keywords) {
  std::sort(keywords->begin(), keywords->end());
  keywords->erase(std::unique(keywords->begin(), keywords->end()),
                  keywords->end());
}

}  // namespace latest::stream
