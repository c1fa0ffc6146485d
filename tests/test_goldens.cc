/**
 * @file
 * Checks on the golden manifest (bench/goldens.txt) that its per-line
 * ctest entries cannot make: every stdout golden and every shipped
 * scenario has a line and every line names files that exist, and every
 * "Measured" table cell of EXPERIMENTS.md occurs in the golden of the
 * driver its section heading names, so no such number drifts from what
 * the binary prints.
 */
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <vector>

namespace {

namespace fs = std::filesystem;

std::string
repoPath(const std::string& rel)
{
    return std::string(BOLT_REPO_DIR) + "/" + rel;
}

std::string
readFile(const std::string& rel)
{
    std::ifstream in(repoPath(rel));
    EXPECT_TRUE(in.good()) << "cannot open " << rel;
    std::stringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
}

/** One manifest line: the golden's path and the command's words. */
struct ManifestLine
{
    std::string golden;
    std::vector<std::string> command;
};

std::vector<ManifestLine>
readManifest()
{
    std::istringstream in(readFile("bench/goldens.txt"));
    std::vector<ManifestLine> lines;
    for (std::string text; std::getline(in, text);) {
        if (text.empty() || text[0] == '#')
            continue;
        std::istringstream words(text);
        ManifestLine line;
        words >> line.golden;
        for (std::string w; words >> w;)
            line.command.push_back(w);
        lines.push_back(line);
    }
    return lines;
}

/** Repository-relative paths of the files in `dir` ending in `ext`. */
std::set<std::string>
filesIn(const std::string& dir, const std::string& ext)
{
    std::set<std::string> paths;
    for (const auto& entry : fs::directory_iterator(repoPath(dir)))
        if (entry.path().extension() == ext)
            paths.insert(dir + "/" + entry.path().filename().string());
    return paths;
}

/** Cells of a markdown table row, trimmed. */
std::vector<std::string>
tableCells(const std::string& row)
{
    std::vector<std::string> cells;
    std::istringstream in(row.substr(1));
    for (std::string cell; std::getline(in, cell, '|');) {
        size_t b = cell.find_first_not_of(' ');
        size_t e = cell.find_last_not_of(' ');
        cells.push_back(b == std::string::npos ? ""
                                               : cell.substr(b, e - b + 1));
    }
    return cells;
}

/** Whether `number` occurs in `text` as a whole, not inside a longer one. */
bool
occursAsNumber(const std::string& text, const std::string& number)
{
    std::string escaped =
        std::regex_replace(number, std::regex(R"([.+])"), R"(\$&)");
    std::regex whole("(^|[^0-9.+-])" + escaped + R"((?![0-9%]|\.[0-9]))");
    return std::regex_search(text, whole);
}

TEST(GoldenManifest, ListsEveryGoldenAndScenario)
{
    std::set<std::string> named;
    for (const ManifestLine& line : readManifest()) {
        EXPECT_FALSE(line.command.empty()) << line.golden << " has no command";
        named.insert(line.golden);
        for (const std::string& word : line.command)
            if (fs::path(word).extension() == ".scn")
                named.insert(word);
    }
    for (const std::string& path : named)
        EXPECT_TRUE(fs::exists(repoPath(path)))
            << "bench/goldens.txt names a missing file: " << path;

    std::set<std::string> wanted = filesIn("bench", ".golden");
    wanted.merge(filesIn("scenarios/golden", ".golden"));
    wanted.merge(filesIn("scenarios", ".scn"));
    for (const std::string& path : wanted)
        EXPECT_EQ(named.count(path), 1u)
            << path << " has no line in bench/goldens.txt";
}

TEST(GoldenManifest, ExperimentsMeasuredCellsMatchGoldens)
{
    std::map<std::string, std::string> goldenOf; // driver -> golden path
    for (const ManifestLine& line : readManifest())
        if (!line.command.empty())
            goldenOf[fs::path(line.command[0]).filename().string()] =
                line.golden;

    const std::regex driverName("`([a-z0-9_]+)`");
    const std::regex firstNumber(R"([-+]?[0-9]+(\.[0-9]+)?%?)");
    std::istringstream doc(readFile("EXPERIMENTS.md"));
    std::string heading, golden;
    std::vector<size_t> measured; // Measured columns of the open table
    bool inTable = false;
    size_t columns = 0;
    for (std::string text; std::getline(doc, text);) {
        if (text.rfind("## ", 0) == 0) {
            heading = text;
            std::smatch m;
            golden = std::regex_search(text, m, driverName) &&
                             goldenOf.count(m[1])
                         ? readFile(goldenOf[m[1]])
                         : "";
        }
        if (text.empty() || text[0] != '|') {
            inTable = false;
            continue;
        }
        std::vector<std::string> cells = tableCells(text);
        if (!inTable) {
            inTable = true;
            measured.clear();
            for (size_t c = 0; c < cells.size(); ++c)
                if (cells[c].rfind("Measured", 0) == 0)
                    measured.push_back(c);
            columns += measured.size();
            if (!measured.empty()) {
                EXPECT_FALSE(golden.empty())
                    << heading << ": no manifest golden for its driver";
            }
            continue;
        }
        for (size_t c : measured) {
            if (c >= cells.size() || cells[c].rfind("---", 0) == 0)
                continue;
            std::string cell = std::regex_replace(
                cells[c], std::regex("\xE2\x88\x92"), "-"); // U+2212 minus
            std::smatch m;
            ASSERT_TRUE(std::regex_search(cell, m, firstNumber))
                << heading << ": no number in '" << cells[c] << "'";
            EXPECT_TRUE(occursAsNumber(golden, m[0]))
                << heading << ": " << m[0]
                << " is not in its golden (cell '" << cells[c] << "')";
        }
    }
    EXPECT_GT(columns, 0u) << "EXPERIMENTS.md has no Measured column";
}

} // namespace
