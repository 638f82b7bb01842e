// Umbrella header for the confanon library.
//
// Pulls in the public API surface a downstream user needs:
//   - core::Anonymizer (Cisco IOS configs) and junos::JunosAnonymizer
//     (JunOS configs): the one engine, core::Engine, instantiated over
//     each dialect's rule pack (core/engine.h)
//   - core::LeakDetector, the post-anonymization leak grep
//   - core::ServiceContext / core::Session, the service-shaped API
//   - analysis::ValidateNetwork and the extraction/fingerprint tooling
//   - the substrates (IP map, ASN permutation, regex rewriting) for
//     programs that compose their own pipelines.
//
// Individual headers remain includable on their own; this file exists so
// a quick consumer can write `#include "confanon.h"` and go.
#pragma once

#include "analysis/characteristics.h"
#include "analysis/compartment.h"
#include "analysis/design_extract.h"
#include "analysis/fingerprint.h"
#include "analysis/linkage.h"
#include "analysis/probe_attack.h"
#include "analysis/reachability.h"
#include "analysis/regex_usage.h"
#include "analysis/validate.h"
#include "asn/asn_map.h"
#include "asn/community.h"
#include "asn/regex_rewrite.h"
#include "config/dialect.h"
#include "config/document.h"
#include "config/tokenizer.h"
#include "core/anonymizer.h"
#include "core/engine.h"
#include "core/leak_detector.h"
#include "core/report.h"
#include "core/session.h"
#include "core/string_hasher.h"
#include "gen/config_writer.h"
#include "gen/network_gen.h"
#include "ipanon/cryptopan.h"
#include "ipanon/ip_anonymizer.h"
#include "junos/anonymizer.h"
#include "junos/design_extract.h"
#include "junos/tokenizer.h"
#include "junos/validate.h"
#include "junos/writer.h"
#include "net/ipv4.h"
#include "net/prefix.h"
#include "net/special.h"
#include "passlist/passlist.h"
#include "regex/regex.h"
#include "util/aho_corasick.h"
#include "util/rng.h"
#include "util/sha1.h"
#include "util/stats.h"
#include "util/strings.h"
