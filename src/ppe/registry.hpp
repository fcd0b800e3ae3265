// Application registry: maps the app name carried in a bitstream to a
// factory that rebuilds the app from its serialized configuration. This is
// the software analogue of the build framework's library of synthesizable
// packet functions (§4.2).
#pragma once

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "ppe/app.hpp"

namespace flexsfp::ppe {

class AppRegistry {
 public:
  using Factory = std::function<PpeAppPtr(net::BytesView config)>;

  /// The process-wide registry. Built-ins are registered once from the table
  /// in apps/register.cpp (apps::register_builtin_apps); adding an app is one
  /// row there.
  [[nodiscard]] static AppRegistry& instance();

  /// Register a factory under `name`. Re-registration replaces (tests rely
  /// on this to stub apps).
  void register_app(const std::string& name, Factory factory);

  /// Instantiate `name` from `config`; nullptr when unknown or when the
  /// factory rejects the config.
  [[nodiscard]] PpeAppPtr create(const std::string& name,
                                 net::BytesView config) const;

  [[nodiscard]] bool contains(const std::string& name) const;
  [[nodiscard]] std::vector<std::string> names() const;

 private:
  std::map<std::string, Factory> factories_;
};

}  // namespace flexsfp::ppe
