// Explicit registration entry point.
//
// Every built-in app is registered once, from the table in register.cpp:
// one row per app maps the name its bitstream carries to a factory that
// rebuilds it from its serialized config, so adding an app is one row there.
// Call this from any binary that loads apps by name (bitstreams, management
// protocol). Idempotent and thread-safe.
#pragma once

namespace flexsfp::apps {

void register_builtin_apps();

}  // namespace flexsfp::apps
