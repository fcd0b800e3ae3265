#include "ppe/registry.hpp"

namespace flexsfp::ppe {

AppRegistry& AppRegistry::instance() {
  static AppRegistry registry;
  return registry;
}

void AppRegistry::register_app(const std::string& name, Factory factory) {
  factories_[name] = std::move(factory);
}

PpeAppPtr AppRegistry::create(const std::string& name,
                              net::BytesView config) const {
  const auto it = factories_.find(name);
  if (it == factories_.end()) return nullptr;
  return it->second(config);
}

bool AppRegistry::contains(const std::string& name) const {
  return factories_.contains(name);
}

std::vector<std::string> AppRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(factories_.size());
  for (const auto& [name, factory] : factories_) out.push_back(name);
  return out;
}

}  // namespace flexsfp::ppe
