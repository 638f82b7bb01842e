// Rule-level coverage of the map-free auditor's single-corpus lint: one
// case per residue rule (AUD-R001..R005) and per def/use site of the
// IOS and JunOS reference rules (seen through AUD-R006 dangling uses and
// AUD-R007 dead definitions), plus a findings golden over the committed
// round-trip corpora in tests/data/golden/.
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "audit/audit.h"
#include "config/document.h"
#include "util/io.h"

namespace confanon {
namespace {

struct RuleCase {
  const char* name;
  /// Rule ids whose findings the case pins; the others are ignored.
  const char* rules;
  const char* text;
  /// Finding::ToString() of every pinned finding, in report order.
  std::vector<std::string> expected;
};

void PrintTo(const RuleCase& rule_case, std::ostream* os) {
  *os << rule_case.name;
}

std::vector<std::string> PinnedFindings(const RuleCase& rule_case) {
  const std::vector<config::ConfigFile> corpus = {
      config::ConfigFile::FromText("r1", rule_case.text)};
  const audit::AuditResult result = audit::LintCorpus(corpus);
  std::vector<std::string> out;
  const std::string rules = rule_case.rules;
  for (const audit::Finding& finding : result.findings) {
    if (rules.find(finding.rule_id) != std::string::npos) {
      out.push_back(finding.ToString());
    }
  }
  return out;
}

class AuditRuleTest : public ::testing::TestWithParam<RuleCase> {};

TEST_P(AuditRuleTest, ReportsExactlyTheExpectedFindings) {
  EXPECT_EQ(PinnedFindings(GetParam()), GetParam().expected);
}

std::string CaseName(const ::testing::TestParamInfo<RuleCase>& info) {
  return info.param.name;
}

constexpr const char* kResidue =
    "AUD-R001 AUD-R002 AUD-R003 AUD-R004 AUD-R005";
constexpr const char* kRefs = "AUD-R006 AUD-R007";

std::string Dangling(int line, const std::string& space,
                     const std::string& name) {
  return "r1:" + std::to_string(line) + ": warning [AUD-R006] reference to " +
         space + " '" + name + "' which is never defined in the corpus";
}

std::string Dead(int line, const std::string& space, const std::string& name) {
  return "r1:" + std::to_string(line) + ": note [AUD-R007] " + space + " '" +
         name + "' is defined but never referenced in the corpus";
}

std::string FreeText(int line, const std::string& message) {
  return "r1:" + std::to_string(line) + ": error [AUD-R001] " + message;
}

// --- AUD-R001..R005: residue rules ---

const RuleCase kResidueCases[] = {
    {"IosBanner", "AUD-R001",
     "banner motd ^C\nAuthorized access only\n^C\n",
     {FreeText(1, "banner block survived anonymization (banners must be "
                  "stripped)")}},
    {"IosDescription", "AUD-R001",
     "interface Loopback0\n description uplink to core\n description\n",
     {FreeText(2, "free-text payload survived after 'description'")}},
    {"IosTitle", "AUD-R001", "title Core Router\n",
     {FreeText(1, "free-text payload survived after 'title'")}},
    {"IosRemark", "AUD-R001",
     "ip access-list extended EDGE\n remark block bogons\n",
     {FreeText(2, "free-text payload survived after 'remark'")}},
    {"IosSnmpServerText", "AUD-R001",
     "snmp-server contact noc\nsnmp-server location lax cage 4\n"
     "snmp-server chassis-id 1234\nsnmp-server location\n",
     {FreeText(1, "free-text payload survived after 'contact'"),
      FreeText(2, "free-text payload survived after 'location'"),
      FreeText(3, "free-text payload survived after 'chassis-id'")}},
    {"IosCommentLineIsNotFreeText", "AUD-R001",
     "! description of the uplink\ninterface Loopback0\n", {}},
    {"JunosBlockComment", "AUD-R001",
     "/* backbone router */\n/* */\n/*\n * note\n */\nsystem {\n}\n",
     {FreeText(1, "block comment content survived (expected a bare '/* */' "
                  "marker)"),
      FreeText(4, "block comment content survived (expected a bare '/* */' "
                  "marker)")}},
    {"JunosDescriptionString", "AUD-R001",
     "interfaces {\n    ge-0/0/0 {\n        description \"to core\";\n"
     "        description \"\";\n    }\n}\n",
     {FreeText(3, "free-text string survived after 'description'")}},
    {"JunosMessageString", "AUD-R001",
     "system {\n    login {\n        message \"authorized only\";\n    }\n}\n",
     {FreeText(3, "free-text string survived after 'message'")}},
    {"JunosTrailingComment", "AUD-R001",
     "system {\n    host-name h0123456789; # edge box\n}\n",
     {FreeText(2, "trailing '#' comment survived anonymization")}},
    {"EmbeddedAddress", kResidue, "logging host 12.1.2.3:514\n",
     {"r1:1: error [AUD-R002] token '12.1.2.3:514' embeds dotted-quad "
      "12.1.2.3"}},
    {"FusedAsnRun", kResidue, "router bgp7018\n",
     {"r1:1: warning [AUD-R003] token 'bgp7018' embeds ASN-like digit run "
      "7018"}},
    {"IosHostname", kResidue, "hostname zork-core-1\n",
     {"r1:1: error [AUD-R004] hostname 'zork-core-1' is not an anonymized "
      "hash and is not pass-listed"}},
    {"JunosHostname", kResidue, "system {\n    host-name zork-core-1;\n}\n",
     {"r1:2: error [AUD-R004] hostname 'zork-core-1' is not an anonymized "
      "hash and is not pass-listed"}},
    {"PassListFallthrough", kResidue, "route-map ZORK-ME permit 10\n",
     {"r1:1: error [AUD-R005] token 'ZORK-ME' is not an anonymized hash and "
      "is not pass-listed"}},
    {"HashTokensAreClean", kResidue,
     "hostname h0123456789\nroute-map h9876543210 permit 10\n", {}},
};

INSTANTIATE_TEST_SUITE_P(Residue, AuditRuleTest,
                         ::testing::ValuesIn(kResidueCases), CaseName);

// --- AUD-R006/R007: IOS def/use sites ---

const RuleCase kIosRefCases[] = {
    {"RouteMapDef", kRefs, "route-map RM permit 10\n",
     {Dead(1, "route-map", "RM")}},
    {"NumberedAclDef", kRefs, "access-list 10 permit any\n",
     {Dead(1, "access-list", "10")}},
    {"KeyChainDef", kRefs, "key chain KC\n", {Dead(1, "key-chain", "KC")}},
    {"NamedAclDefs", kRefs,
     "ip access-list standard SA\nip access-list extended EA\n",
     {Dead(1, "access-list", "SA"), Dead(2, "access-list", "EA")}},
    {"PrefixListDef", kRefs, "ip prefix-list PL seq 5 permit 10.0.0.0/8\n",
     {Dead(1, "prefix-list", "PL")}},
    {"CommunityListDefs", kRefs,
     "ip community-list 1 permit 65000:1\n"
     "ip community-list standard CS permit 65000:2\n"
     "ip community-list expanded CE permit _65000_\n",
     {Dead(1, "community-list", "1"), Dead(2, "community-list", "CS"),
      Dead(3, "community-list", "CE")}},
    {"AsPathListDef", kRefs, "ip as-path access-list 5 permit ^65000$\n",
     {Dead(1, "as-path-list", "5")}},
    {"NatPoolDef", kRefs,
     "ip nat pool NP 10.0.0.1 10.0.0.9 netmask 255.255.255.0\n",
     {Dead(1, "nat-pool", "NP")}},
    {"NatInsideUses", kRefs, "ip nat inside source list 7 pool NP2 overload\n",
     {Dangling(1, "access-list", "7"), Dangling(1, "nat-pool", "NP2")}},
    {"PeerGroupDef", kRefs, "router bgp 65000\n neighbor PG peer-group\n",
     {Dead(2, "peer-group", "PG")}},
    {"NeighborUses", kRefs,
     "router bgp 65000\n"
     " neighbor 10.0.0.2 route-map RMI in\n"
     " neighbor 10.0.0.2 prefix-list PLI in\n"
     " neighbor 10.0.0.2 filter-list 9 in\n"
     " neighbor 10.0.0.2 distribute-list 11 in\n"
     " neighbor 10.0.0.2 peer-group PGU\n"
     " neighbor 10.0.0.2 update-source Loopback7\n",
     {Dangling(2, "route-map", "RMI"), Dangling(3, "prefix-list", "PLI"),
      Dangling(4, "as-path-list", "9"), Dangling(5, "access-list", "11"),
      Dangling(6, "peer-group", "PGU"), Dangling(7, "interface", "Loopback7")}},
    {"MatchUses", kRefs,
     "route-map RM permit 10\n"
     " match as-path 3 4\n"
     " match community CL1 exact-match\n"
     " match ip address prefix-list PL1 PL2\n"
     " match ip address 101\n",
     {Dead(1, "route-map", "RM"), Dangling(2, "as-path-list", "3"),
      Dangling(2, "as-path-list", "4"), Dangling(3, "community-list", "CL1"),
      Dangling(4, "prefix-list", "PL1"), Dangling(4, "prefix-list", "PL2"),
      Dangling(5, "access-list", "101")}},
    {"StatementUses", kRefs,
     "router ospf 1\n"
     " distribute-list 12 in\n"
     " passive-interface Loopback9\n"
     "line vty 0 4\n"
     " access-class 13 in\n",
     {Dangling(2, "access-list", "12"), Dangling(3, "interface", "Loopback9"),
      Dangling(5, "access-list", "13")}},
    {"KeyChainUse", kRefs,
     "interface Ethernet0\n ip authentication key-chain eigrp 1 KCU\n",
     {Dangling(2, "key-chain", "KCU")}},
    {"InterfaceDefResolvesUse", kRefs,
     "interface Loopback0\nrouter ospf 1\n passive-interface Loopback0\n", {}},
    {"BlankLinesHaveNoSites", kRefs, "\nroute-map RM permit 10\n\n",
     {Dead(2, "route-map", "RM")}},
    {"BannerBodyHasNoSites", kRefs,
     "banner motd ^C\nroute-map RM permit 10\n^C\n", {}},
};

INSTANTIATE_TEST_SUITE_P(IosRefs, AuditRuleTest,
                         ::testing::ValuesIn(kIosRefCases), CaseName);

// --- AUD-R006/R007: JunOS def/use sites ---

const RuleCase kJunosRefCases[] = {
    {"PolicyStatementDef", kRefs,
     "policy-options {\n    policy-statement PS {\n        then accept;\n"
     "    }\n}\n",
     {Dead(2, "route-map", "PS")}},
    {"PrefixListDef", kRefs,
     "policy-options {\n    prefix-list PLD {\n        10.0.0.0/8;\n"
     "    }\n}\n",
     {Dead(2, "prefix-list", "PLD")}},
    {"GroupDefAndPolicyUses", kRefs,
     "protocols {\n    bgp {\n        group GRP {\n"
     "            import [ IMP1 IMP2 ];\n            export EXP;\n"
     "        }\n    }\n}\n",
     {Dead(3, "peer-group", "GRP"), Dangling(4, "route-map", "IMP1"),
      Dangling(4, "route-map", "IMP2"), Dangling(5, "route-map", "EXP")}},
    {"InterfaceDefAndUses", kRefs,
     "interfaces {\n    ge-0/0/0 {\n        mtu 9000;\n    }\n}\n"
     "protocols {\n    ospf {\n        area 0.0.0.0 {\n"
     "            interface ge-0/0/0;\n            interface ge-0/0/9;\n"
     "        }\n    }\n}\n",
     {Dangling(10, "interface", "ge-0/0/9")}},
    {"PrefixListUse", kRefs,
     "policy-options {\n    policy-statement PS {\n        term t1 {\n"
     "            from {\n                prefix-list PLU;\n            }\n"
     "            then accept;\n        }\n    }\n}\n",
     {Dead(2, "route-map", "PS"), Dangling(5, "prefix-list", "PLU")}},
    {"AsPathDefAndUse", kRefs,
     "policy-options {\n    as-path AP1 \"^65000$\";\n"
     "    policy-statement PS {\n        from {\n            as-path AP2;\n"
     "        }\n    }\n}\n",
     {Dead(2, "as-path-list", "AP1"), Dead(3, "route-map", "PS"),
      Dangling(5, "as-path-list", "AP2")}},
    {"CommunityDefAndUse", kRefs,
     "policy-options {\n    community CM members 65000:1;\n"
     "    policy-statement PS {\n        from {\n            community CU;\n"
     "        }\n    }\n}\n",
     {Dead(2, "community-list", "CM"), Dead(3, "route-map", "PS"),
      Dangling(5, "community-list", "CU")}},
    {"CommunityActionUsesDefinedName", kRefs,
     "policy-options {\n    community CA members 65000:1;\n"
     "    policy-statement PS {\n        then {\n"
     "            community add CA;\n        }\n    }\n}\n",
     {Dead(3, "route-map", "PS")}},
    {"CommunityActionUsesUndefinedName", kRefs,
     "policy-options {\n    policy-statement PS {\n        then {\n"
     "            community set CS;\n            community delete CD;\n"
     "        }\n    }\n}\n",
     {Dead(2, "route-map", "PS"), Dangling(4, "community-list", "CS"),
      Dangling(5, "community-list", "CD")}},
    {"LogicalUnitDefinesUnitName", kRefs,
     "interfaces {\n    so-0/1 {\n        unit 1 {\n"
     "            family inet;\n        }\n    }\n}\n"
     "protocols {\n    ospf {\n        area 0.0.0.0 {\n"
     "            interface so-0/1.1;\n            interface so-0/1.2;\n"
     "            interface so-0/1;\n        }\n    }\n}\n",
     {Dangling(12, "interface", "so-0/1.2")}},
    {"BlockCommentHasNoSites", kRefs,
     "/*\npolicy-statement PS {\n*/\n", {}},
    {"OneLineTermsUseUndefinedNames", kRefs,
     "policy-options {\n    policy-statement PS {\n        term t1 {\n"
     "            from prefix-list PLX;\n            from as-path APX;\n"
     "            from community [ C1 C2 ];\n"
     "            then community add CAX;\n        }\n    }\n}\n",
     {Dead(2, "route-map", "PS"), Dangling(4, "prefix-list", "PLX"),
      Dangling(5, "as-path-list", "APX"), Dangling(6, "community-list", "C1"),
      Dangling(6, "community-list", "C2"),
      Dangling(7, "community-list", "CAX")}},
    {"OneLineTermsUseDefinedNames", kRefs,
     "policy-options {\n    prefix-list PLD {\n        10.0.0.0/8;\n    }\n"
     "    as-path APD \"^65000$\";\n    community C1 members 65000:1;\n"
     "    community C2 members 65000:2;\n    community CAD members 65000:3;\n"
     "    policy-statement PS {\n        term t1 {\n"
     "            from prefix-list PLD;\n            from as-path APD;\n"
     "            from community [ C1 C2 ];\n"
     "            then community set CAD;\n        }\n    }\n}\n",
     {Dead(9, "route-map", "PS")}},
};

INSTANTIATE_TEST_SUITE_P(JunosRefs, AuditRuleTest,
                         ::testing::ValuesIn(kJunosRefCases), CaseName);

// --- findings golden over the committed round-trip corpora ---

std::filesystem::path DataDir() {
  return std::filesystem::path(CONFANON_TEST_DATA_DIR);
}

/// Loads a corpus the way confanon_audit does: sorted by file name, one
/// trailing ".cfg" stripped from each name.
std::vector<config::ConfigFile> LoadCorpus(const std::filesystem::path& dir) {
  std::vector<std::filesystem::path> paths;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    paths.push_back(entry.path());
  }
  std::sort(paths.begin(), paths.end());
  std::vector<config::ConfigFile> files;
  for (const auto& path : paths) {
    std::string error;
    auto contents = util::ReadFileContents(path.string(), &error);
    EXPECT_TRUE(contents.has_value()) << error;
    if (!contents) continue;
    std::string name = path.filename().string();
    if (name.size() > 4 && name.ends_with(".cfg")) name.resize(name.size() - 4);
    files.push_back(config::ConfigFile::FromBacking(
        std::move(name), contents->view, std::move(contents->backing)));
  }
  return files;
}

std::string ReadText(const std::filesystem::path& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

class AuditFindingsGolden : public ::testing::TestWithParam<const char*> {};

// The expected texts are confanon_audit's stdout over the same
// directories (`confanon_audit DIR`, `confanon_audit --pre A --post B`).
TEST_P(AuditFindingsGolden, MatchesCommittedText) {
  const std::string mode = GetParam();
  const std::vector<config::ConfigFile> pre =
      LoadCorpus(DataDir() / "golden" / ("pre-" + mode));
  const std::vector<config::ConfigFile> post =
      LoadCorpus(DataDir() / "golden" / ("post-" + mode));
  ASSERT_FALSE(pre.empty());
  ASSERT_FALSE(post.empty());
  const std::filesystem::path expected = DataDir() / "audit";
  for (const int threads : {1, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    audit::AuditOptions options;
    options.threads = threads;
    EXPECT_EQ(audit::LintCorpus(pre, options).ToText(),
              ReadText(expected / ("lint-pre-" + mode + ".txt")));
    EXPECT_EQ(audit::LintCorpus(post, options).ToText(),
              ReadText(expected / ("lint-post-" + mode + ".txt")));
    EXPECT_EQ(audit::ComparePair(pre, post, options).ToText(),
              ReadText(expected / ("pair-" + mode + ".txt")));
  }
}

INSTANTIATE_TEST_SUITE_P(Corpora, AuditFindingsGolden,
                         ::testing::Values("ios", "junos", "mixed"));

}  // namespace
}  // namespace confanon
