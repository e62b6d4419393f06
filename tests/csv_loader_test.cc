// Tests for the CSV stream loader.

#include <cstdio>
#include <fstream>
#include <string>

#include <gtest/gtest.h>

#include "workload/csv_loader.h"

namespace latest::workload {
namespace {

TEST(CsvLineTest, ParsesFullLine) {
  stream::KeywordDictionary dictionary;
  stream::GeoTextObject obj;
  ASSERT_TRUE(
      ParseCsvLine("1500,-73.9,40.7,fire;help", &dictionary, &obj).ok());
  EXPECT_EQ(obj.timestamp, 1500);
  EXPECT_DOUBLE_EQ(obj.loc.x, -73.9);
  EXPECT_DOUBLE_EQ(obj.loc.y, 40.7);
  ASSERT_EQ(obj.keywords.size(), 2u);
  stream::KeywordId fire;
  ASSERT_TRUE(dictionary.Lookup("fire", &fire));
  EXPECT_TRUE(obj.MatchesAnyKeyword({fire}));
}

TEST(CsvLineTest, EmptyKeywordFieldIsAllowed) {
  stream::KeywordDictionary dictionary;
  stream::GeoTextObject obj;
  ASSERT_TRUE(ParseCsvLine("10,1.5,2.5,", &dictionary, &obj).ok());
  EXPECT_TRUE(obj.keywords.empty());
}

TEST(CsvLineTest, TrimsWhitespaceAndDeduplicates) {
  stream::KeywordDictionary dictionary;
  stream::GeoTextObject obj;
  ASSERT_TRUE(
      ParseCsvLine(" 10 , 1.5 , 2.5 , fire ; fire ; help ", &dictionary, &obj)
          .ok());
  EXPECT_EQ(obj.keywords.size(), 2u);
}

TEST(CsvLineTest, RejectsMalformedRows) {
  stream::KeywordDictionary dictionary;
  stream::GeoTextObject obj;
  EXPECT_FALSE(ParseCsvLine("", &dictionary, &obj).ok());
  EXPECT_FALSE(ParseCsvLine("10,1.5", &dictionary, &obj).ok());
  EXPECT_FALSE(ParseCsvLine("abc,1.5,2.5,kw", &dictionary, &obj).ok());
  EXPECT_FALSE(ParseCsvLine("10,xx,2.5,kw", &dictionary, &obj).ok());
  EXPECT_FALSE(ParseCsvLine("10,1.5,yy,kw", &dictionary, &obj).ok());
  EXPECT_FALSE(ParseCsvLine("-5,1.5,2.5,kw", &dictionary, &obj).ok());
}

TEST(CsvStreamTest, ParsesMultipleLinesWithCommentsAndBlanks) {
  stream::KeywordDictionary dictionary;
  const auto result = ParseCsvStream(
      "# header comment\n"
      "100,1.0,2.0,fire\n"
      "\n"
      "200,3.0,4.0,help;rescue\n"
      "300,5.0,6.0,\n",
      &dictionary);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->objects.size(), 3u);
  EXPECT_EQ(result->lines_skipped, 2u);
  EXPECT_EQ(result->objects[0].oid, 0u);
  EXPECT_EQ(result->objects[2].oid, 2u);
  EXPECT_EQ(result->objects[1].keywords.size(), 2u);
}

TEST(CsvStreamTest, RejectsTimestampRegression) {
  stream::KeywordDictionary dictionary;
  const auto result = ParseCsvStream(
      "100,1.0,2.0,a\n"
      "50,1.0,2.0,b\n",
      &dictionary);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("line 2"), std::string::npos);
}

TEST(CsvStreamTest, ErrorNamesTheLine) {
  stream::KeywordDictionary dictionary;
  const auto result = ParseCsvStream(
      "100,1.0,2.0,a\n"
      "garbage\n",
      &dictionary);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("line 2"), std::string::npos);
}

TEST(CsvStreamTest, EmptyContentYieldsEmptyStream) {
  stream::KeywordDictionary dictionary;
  const auto result = ParseCsvStream("", &dictionary);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->objects.empty());
}

TEST(CsvFileTest, LoadsFromDisk) {
  const std::string path = ::testing::TempDir() + "/latest_csv_test.csv";
  {
    std::ofstream out(path);
    out << "# synthetic mini stream\n";
    out << "100,-73.9,40.7,fire;downtown\n";
    out << "250,-73.8,40.8,coffee\n";
  }
  stream::KeywordDictionary dictionary;
  const auto result = LoadCsvStream(path, &dictionary);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->objects.size(), 2u);
  EXPECT_EQ(result->objects[1].timestamp, 250);
  std::remove(path.c_str());
}

TEST(CsvFileTest, MissingFileIsNotFound) {
  stream::KeywordDictionary dictionary;
  const auto result =
      LoadCsvStream("/nonexistent/latest-test.csv", &dictionary);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), util::StatusCode::kNotFound);
}

TEST(CsvStreamTest, NoTrailingNewline) {
  stream::KeywordDictionary dictionary;
  const auto result = ParseCsvStream("100,1.0,2.0,fire", &dictionary);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->objects.size(), 1u);
}

}  // namespace
}  // namespace latest::workload
