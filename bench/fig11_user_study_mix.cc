/**
 * @file
 * Reproduces Figure 11: the probability distribution of application
 * types launched in the EC2-style user study — 436 jobs from 20 users
 * across 53 application labels, with per-user preference skews visible
 * as blocks of repeated submissions.
 */
#include <algorithm>
#include <iostream>
#include <map>

#include "util/cli_flags.h"
#include "util/table.h"
#include "workloads/generators.h"

using namespace bolt;

int
main(int argc, char** argv)
{
    if (std::string err = util::parseProgramFlags(argc, argv); !err.empty()) {
        std::cerr << err;
        return 2;
    }
    util::Rng rng(2017);
    auto jobs = workloads::userStudy(rng);

    std::map<std::string, int> occurrences;
    std::map<std::string, std::map<int, int>> per_user;
    for (const auto& j : jobs) {
        ++occurrences[j.spec.family];
        ++per_user[j.spec.family][j.user];
    }

    std::cout << "== Figure 11: application mix of the user study ("
              << jobs.size() << " jobs, 20 users, "
              << occurrences.size() << " of 53 labels drawn) ==\n";
    util::AsciiTable table(
        {"Application", "Occurrences", "Users", "Top user share"});
    // Order families by catalog position, as in the figure's x axis.
    for (const auto& fam : workloads::catalog()) {
        auto it = occurrences.find(fam.name);
        if (it == occurrences.end())
            continue;
        int top_user = 0;
        for (const auto& [user, n] : per_user[fam.name])
            top_user = std::max(top_user, n);
        table.addRow({fam.name, std::to_string(it->second),
                      std::to_string(per_user[fam.name].size()),
                      util::AsciiTable::percent(
                          static_cast<double>(top_user) / it->second)});
    }
    table.print(std::cout);

    // The paper's mix is dominated by the server frameworks.
    std::vector<std::pair<int, std::string>> ranked;
    for (const auto& [name, n] : occurrences)
        ranked.emplace_back(n, name);
    std::sort(ranked.rbegin(), ranked.rend());
    std::cout << "\nMost submitted: ";
    for (size_t i = 0; i < 5 && i < ranked.size(); ++i)
        std::cout << ranked[i].second << " (" << ranked[i].first << ") ";
    std::cout << "\n";
    return 0;
}
